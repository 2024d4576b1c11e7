/**
 * @file
 * Paper §V-A multi-core results, generalized into a combinatorial
 * scale-out sweep: for each core count in {8, 16, 32, 64} the binary
 * generates every homogeneous mix (one per benchmark) plus a set of
 * seeded heterogeneous mixes, and runs each under the baseline and the
 * full proposal. Machines are built entirely from declarative
 * TopologySpec strings (sim/topology.hh): sliced LLC with a ring-hop
 * latency, per-core MSHR quotas and bandwidth tokens at the LLC, and
 * auto-derived DRAM channels. 4 core counts x 15 mixes x 2 policies =
 * 120 sweep points, all registered up front on the parallel runner.
 *
 * Metrics per (core count, mix): weighted speedup (mean of per-thread
 * IPC ratios) and harmonic speedup of the proposal, both against the
 * baseline run of the same mix on the same topology. Paper reference
 * point (8-core): average weighted-speedup improvement above 4%.
 *
 * TACSIM_MC_CORES=<comma list> restricts the core counts (CI's
 * multicore-smoke lane runs TACSIM_MC_CORES=16 at a tiny budget);
 * values must keep the auto-sized LLC set count a power of two.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.hh"
#include "common/rng.hh"
#include "sim/topology.hh"

using namespace tacbench;

namespace {

using B = Benchmark;

/** Core counts to sweep, from TACSIM_MC_CORES or the default ladder. */
std::vector<unsigned>
coreCounts()
{
    std::string text = "8,16,32,64";
    if (const char *v = std::getenv("TACSIM_MC_CORES"))
        if (*v)
            text = v;
    std::vector<unsigned> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const unsigned long c =
            std::strtoul(text.substr(pos, comma - pos).c_str(), nullptr,
                         10);
        if (c > 0)
            out.push_back(static_cast<unsigned>(c));
        pos = comma + 1;
    }
    return out;
}

/** Largest power of two <= @p v (v >= 1). */
unsigned
pow2Floor(unsigned v)
{
    unsigned p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

/**
 * Declarative machine for @p cores: LLC auto-sized at 2MB/core and
 * sliced one slice per 4 cores with a 2-cycle ring hop, DRAM channels
 * auto-derived, and LLC arbitration tightened as the machine grows
 * (the per-core MSHR quota shrinks from the full 128-entry fair share
 * at 8 cores down to 16 entries at 64, modelling a fixed arbiter
 * budget, while bandwidth tokens stay at 32 demands per 64 cycles).
 */
std::string
topologyFor(unsigned cores)
{
    const unsigned slices = pow2Floor(std::max(1u, cores / 4));
    const unsigned quota = std::max(16u, 1024u / cores);
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "cores=%u,llc=auto/16w,slices=%u,slice_lat=2,"
                  "mshr_quota=%u,bw=32",
                  cores, slices, quota);
    return buf;
}

/** One named mix: @p cores benchmarks, one per thread. */
struct Mix
{
    std::string name;
    std::vector<B> threads;
};

/**
 * The mix table for one core count: every homogeneous mix plus
 * kHeteroMixes seeded-random heterogeneous draws. The Rng seed folds in
 * the core count so each machine size sees distinct (but reproducible)
 * co-runner sets.
 */
std::vector<Mix>
mixesFor(unsigned cores)
{
    constexpr unsigned kHeteroMixes = 6;
    std::vector<Mix> mixes;
    for (B b : kAllBenchmarks)
        mixes.push_back({"homog-" + benchmarkName(b),
                         std::vector<B>(cores, b)});
    Rng rng(0x5ca1e0c7u + cores);
    for (unsigned h = 0; h < kHeteroMixes; ++h) {
        Mix m;
        m.name = "hetero-" + std::to_string(h);
        m.threads.reserve(cores);
        for (unsigned t = 0; t < cores; ++t)
            m.threads.push_back(
                kAllBenchmarks[rng.range(kAllBenchmarks.size())]);
        mixes.push_back(std::move(m));
    }
    return mixes;
}

std::string
pointKey(unsigned cores, const std::string &mix, const char *policy)
{
    return "mc/" + std::to_string(cores) + "c/" + mix + "/" + policy;
}

} // namespace

int
main(int argc, char **argv)
{
    // sweep() first: it rejects a malformed TACSIM_INSTRUCTIONS before
    // budgetFor reads it.
    sweep();
    const std::vector<unsigned> counts = coreCounts();

    // Shrink the per-thread budget with the core count so every point
    // simulates a roughly constant total instruction volume.
    auto budgetFor = [](unsigned cores) {
        return std::max<std::uint64_t>(
            12000, defaultInstructions() * 8 / (3 * cores));
    };

    // Register the full (core count x mix x policy) grid.
    for (unsigned cores : counts) {
        const SystemConfig base =
            configFromTopology(topologyFor(cores), baselineConfig());
        const SystemConfig enh = proposedConfig(base);

        const std::uint64_t instr = budgetFor(cores);
        const std::uint64_t warm = std::max<std::uint64_t>(3000, instr / 4);
        for (const Mix &m : mixesFor(cores)) {
            registerMixPoint(pointKey(cores, m.name, "base"), base,
                             m.threads, instr, warm);
            registerMixPoint(pointKey(cores, m.name, "enh"), enh,
                             m.threads, instr, warm);
        }
    }

    return benchMain(argc, argv,
                     "§V-A — multiprogrammed mixes at 8/16/32/64 cores",
                     [&] {
        // Weighted-speedup gains per core count, for the geomean rows.
        std::map<unsigned, std::vector<double>> gains;
        for (unsigned cores : counts) {
            for (const Mix &m : mixesFor(cores)) {
                const RunResult &rb =
                    sweep().result(pointKey(cores, m.name, "base"));
                const RunResult &re =
                    sweep().result(pointKey(cores, m.name, "enh"));

                // Weighted speedup: mean of per-thread IPC ratios.
                double sum = 0;
                std::vector<double> baseIpc;
                for (std::size_t t = 0; t < cores; ++t) {
                    baseIpc.push_back(rb.threadIpc(t));
                    sum += re.threadIpc(t) / rb.threadIpc(t);
                }
                const double ws = sum / double(cores);
                // Harmonic speedup of the proposal with the baseline
                // mix run as the reference (fairness-sensitive view of
                // the same comparison; no solo runs needed).
                const double hs = harmonicSpeedup(baseIpc, re);

                addRow(std::to_string(cores) + "-core weighted speedup",
                       m.name, (ws - 1) * 100, std::nan(""), "%");
                addRow(std::to_string(cores) + "-core harmonic speedup",
                       m.name, (hs - 1) * 100, std::nan(""), "%");
                gains[cores].push_back(ws);
            }
        }

        for (unsigned cores : counts) {
            // The paper's >4% average is an 8-core result; larger
            // machines have no reference number.
            const double paper = cores == 8 ? 4.0 : std::nan("");
            addRow(std::to_string(cores) + "-core weighted speedup",
                   "mix geomean", (geomean(gains[cores]) - 1) * 100,
                   paper, cores == 8 ? "% (paper: >4%)" : "%");
        }
    });
}
