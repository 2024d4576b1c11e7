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
 * (decimal digits; anything else exits 2).
 */

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "sim/runner.hh"

namespace {

/** Budget argument @p i of @p argv, or @p fallback when absent; exits 2
 *  naming the argument when it is not a count. */
std::uint64_t
budgetArg(int argc, char **argv, int i, const char *name,
          std::uint64_t fallback)
{
    if (argc <= i)
        return fallback;
    const std::optional<std::uint64_t> n = tacsim::parseCount(argv[i]);
    if (!n) {
        std::fprintf(stderr,
                     "%s: %s \"%s\" is not a count: use decimal digits\n"
                     "usage: %s [instructions] [warmup]\n",
                     argv[0], name, argv[i], argv[0]);
        std::exit(2);
    }
    return *n;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tacsim;

    const std::uint64_t instr =
        budgetArg(argc, argv, 1, "instructions", 400000);
    const std::uint64_t warm = budgetArg(argc, argv, 2, "warmup", 100000);

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
