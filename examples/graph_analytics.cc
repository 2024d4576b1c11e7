/**
 * @file
 * Graph-analytics example: the scenario that motivates the paper's
 * introduction. Runs the Ligra-class graph workloads (pr, cc, bf, radii)
 * on the baseline hierarchy and on the translation-aware hierarchy, and
 * reports where the time goes: ROB-head stall cycles split into
 * translation (T), replay (R) and other (N), plus the on-chip hit rate
 * for leaf translations.
 *
 * Usage: example_graph_analytics [instructions] [warmup]
 */

#include <cstdio>
#include <cstdlib>

#include "sim/runner.hh"

int
main(int argc, char **argv)
{
    using namespace tacsim;

    const std::uint64_t instr =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400000;
    const std::uint64_t warm =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100000;

    const Benchmark graphs[] = {Benchmark::pr, Benchmark::cc,
                                Benchmark::bf, Benchmark::radii};

    std::printf("%-8s | %28s | %28s | %8s\n", "", "baseline (DRRIP+SHiP)",
                "translation-aware (+ATP)", "");
    std::printf("%-8s | %8s %8s %9s | %8s %8s %9s | %8s\n", "graph",
                "IPC", "T-stall%", "R-stall%", "IPC", "T-stall%",
                "R-stall%", "speedup");

    for (Benchmark b : graphs) {
        SystemConfig base;
        RunResult rb = runSpecMix(base, {benchmarkName(b)}, instr, warm);

        SystemConfig enh = base;
        TranslationAwareOptions opts;
        opts.tempo = true;
        applyTranslationAware(enh, opts);
        RunResult re = runSpecMix(enh, {benchmarkName(b)}, instr, warm);

        auto stallPct = [](const RunResult &r, std::uint64_t stall) {
            return r.cycles ? 100.0 * double(stall) / double(r.cycles)
                            : 0.0;
        };

        std::printf(
            "%-8s | %8.3f %8.2f %9.2f | %8.3f %8.2f %9.2f | %+7.2f%%\n",
            rb.benchmark.c_str(), rb.ipc, stallPct(rb, rb.stallT),
            stallPct(rb, rb.stallR), re.ipc, stallPct(re, re.stallT),
            stallPct(re, re.stallR), (speedup(rb, re) - 1) * 100);
    }

    std::printf("\nNote: replay-load stalls dominate graph analytics "
                "(paper Fig. 1); the translation-aware hierarchy "
                "attacks both components (paper Fig. 16).\n");
    return 0;
}
