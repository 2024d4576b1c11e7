/**
 * @file
 * The VM axes of Figs. 14 and 16: does the full scheme still pay off
 * when huge pages shrink the walk burden (half or all of memory on 2MB
 * pages, THP-style), or when nested guest×host translation multiplies
 * it? Under nesting every STLB miss costs several times more cache
 * references, so the translation-stall savings should grow.
 *
 * 54 points: 3 axes x {baseline, proposal} x 9 benchmarks, keyed
 * vm/<axis>/{base,prop}/<benchmark>. Rows: per axis, the proposal's
 * geomean speedup and the baseline's mean STLB MPKI (Fig. 14's
 * comparison), then Fig. 16's cycle-weighted stall reduction under
 * nesting.
 */

#include "figures.hh"

using namespace tacbench;

namespace {

struct VmAxis
{
    const char *name; ///< sweep-key segment, e.g. "thp50"
    double thp2m;     ///< fraction of memory on 2MB pages
    bool nested;
};

const VmAxis kAxes[] = {
    {"thp50", 0.5, false},
    {"thp", 1.0, false},
    {"nested", 0.0, true},
};
const VmAxis &kNested = kAxes[2];

SystemConfig
withVmAxis(SystemConfig cfg, const VmAxis &a)
{
    cfg.vm.hugePages2M = a.thp2m;
    cfg.vm.nested = a.nested;
    return cfg;
}

const auto vmKey = [](const VmAxis &a, const char *policy, Benchmark b) {
    return "vm/" + std::string(a.name) + "/" + policy + "/" +
        benchmarkName(b);
};

} // namespace

const Figure tacbench::vmAxes{
    "vm-axes",
    "Figs. 14 and 16 — the proposal under huge pages and nested translation",
    [](SweepRunner &sweep) {
        for (const VmAxis &a : kAxes) {
            for (Benchmark b : kAllBenchmarks) {
                registerPoint(sweep, vmKey(a, "base", b),
                              withVmAxis(baselineConfig(), a), b);
                registerPoint(sweep, vmKey(a, "prop", b),
                              withVmAxis(proposedConfig(), a), b);
            }
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        for (const VmAxis &a : kAxes) {
            std::vector<double> sp;
            double mpki = 0;
            for (Benchmark b : kAllBenchmarks) {
                const RunResult &base = sweep.result(vmKey(a, "base", b));
                sp.push_back(speedup(base, sweep.result(vmKey(a, "prop", b))));
                mpki += base.stlbMpki;
            }
            addRow(rows, std::string("vm:") + a.name, "geomean",
                   (geomean(sp) - 1) * 100, std::nan(""), "%");
            addRow(rows, std::string("vm:") + a.name, "base STLB MPKI",
                   mpki / 9.0, std::nan(""), "");
        }

        std::uint64_t bT = 0, bR = 0, eT = 0, eR = 0;
        for (Benchmark b : kAllBenchmarks) {
            const RunResult &base = sweep.result(vmKey(kNested, "base", b));
            const RunResult &enh = sweep.result(vmKey(kNested, "prop", b));
            bT += base.stallT;
            bR += base.stallR;
            eT += enh.stallT;
            eR += enh.stallR;
        }
        addRow(rows, "T-stall reduction", "nested suite",
               stallReduction(bT, eT), std::nan(""), "%");
        addRow(rows, "T+R stall reduction", "nested suite",
               stallReduction(bT + bR, eT + eR), std::nan(""), "%");
        return rows;
    }};
