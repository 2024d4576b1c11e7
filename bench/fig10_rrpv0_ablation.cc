/**
 * @file
 * Paper Fig. 10 ablation: inserting *replay loads* at RRPV=0 (together
 * with translations) degrades performance — replay blocks are dead, and
 * parking them at RRPV=0 forces RRIP to age (and eventually evict) the
 * translation blocks the scheme is trying to keep.
 *
 * Compares, against the plain baseline: (a) the correct T-DRRIP/T-SHiP
 * insertion (translations 0, replays evict-fast) and (b) the ablated
 * RRPV0-for-both variant. The paper reports (b) losing performance.
 * 18 points: 6 benchmarks x {base, correct, ablated}.
 */

#include "figures.hh"

using namespace tacbench;

namespace {

SystemConfig
correctConfig()
{
    SystemConfig cfg = baselineConfig();
    cfg.l2Opts.translationRrpv0 = true;
    cfg.l2Opts.replayEvictFast = true;
    cfg.llcOpts.newSignatures = true;
    cfg.llcOpts.translationRrpv0 = true;
    return cfg;
}

SystemConfig
ablatedConfig()
{
    SystemConfig cfg = correctConfig();
    cfg.l2Opts.replayEvictFast = false;
    cfg.l2Opts.replayRrpv0 = true; // ablation: replays at 0
    cfg.llcOpts.replayRrpv0 = true;
    return cfg;
}

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::radii, Benchmark::bf};

} // namespace

const Figure tacbench::fig10{
    "fig10", "Fig. 10 — RRPV=0 insertion for replays (ablation)",
    [](SweepRunner &sweep) {
        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            registerPoint(sweep, "base/" + name, baselineConfig(), b);
            registerPoint(sweep, "fig10/T/" + name, correctConfig(), b);
            registerPoint(sweep, "fig10/ablate/" + name, ablatedConfig(), b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> good, bad;
        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            const RunResult &base = sweep.result("base/" + name);
            const RunResult &tRes = sweep.result("fig10/T/" + name);
            const RunResult &aRes = sweep.result("fig10/ablate/" + name);
            const double sGood = (speedup(base, tRes) - 1) * 100;
            const double sBad = (speedup(base, aRes) - 1) * 100;
            addRow(rows, "T-insertion (correct)", name, sGood, std::nan(""),
                   "%");
            addRow(rows, "RRPV0-for-replays (ablated)", name, sBad,
                   std::nan(""), "%");
            good.push_back(sGood);
            bad.push_back(sBad);
        }
        addRow(rows, "T-insertion (correct)", "suite avg", mean(good),
               std::nan(""), "% (paper: positive)");
        addRow(rows, "RRPV0-for-replays (ablated)", "suite avg", mean(bad),
               std::nan(""), "% (paper: degradation vs correct)");
        return rows;
    }};
