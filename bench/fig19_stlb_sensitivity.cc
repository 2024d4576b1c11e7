/**
 * @file
 * Paper Fig. 19: STLB-size sensitivity — the proposal's speedup vs a
 * same-size baseline, for 512 to 4096 STLB entries.
 *
 * Paper reference points: gains persist across sizes (recall distances
 * of the costly translations are large); gains shrink as the STLB grows
 * because STLB MPKI drops; mcf saturates once its translations fit
 * (STLB MPKI 0.39 at 4096 entries).
 */

#include <map>

#include "figures.hh"

using namespace tacbench;

const std::uint32_t kSizes[] = {512, 1024, 2048, 4096};
const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc,
                             Benchmark::pr};

const auto key = [](std::uint32_t entries, Benchmark b) {
    return "fig19/stlb" + std::to_string(entries) + "/" + benchmarkName(b);
};

const Figure tacbench::fig19{
    "fig19", "Fig. 19 — STLB size sensitivity",
    [](SweepRunner &sweep) {
        for (std::uint32_t entries : kSizes) {
            SystemConfig base = baselineConfig();
            base.stlbEntries = entries;
            for (Benchmark b : kSubset) {
                registerPoint(sweep, key(entries, b) + "/base", base, b);
                registerPoint(sweep, key(entries, b) + "/proposed",
                              proposedConfig(base), b);
            }
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::uint32_t, std::vector<double>> series;
        for (std::uint32_t entries : kSizes) {
            for (Benchmark b : kSubset) {
                const RunResult &rb = sweep.result(key(entries, b) + "/base");
                const double sp =
                    speedup(rb, sweep.result(key(entries, b) + "/proposed"));
                addRow(rows, "STLB=" + std::to_string(entries),
                       benchmarkName(b), (sp - 1) * 100, std::nan(""),
                       "% (stlbMPKI " + std::to_string(rb.stlbMpki) + ")");
                series[entries].push_back(sp);
            }
        }
        for (std::uint32_t e : kSizes)
            addRow(rows, "STLB=" + std::to_string(e), "geomean",
                   (geomean(series[e]) - 1) * 100, std::nan(""),
                   "% (paper: positive at all sizes, shrinking)");
        return rows;
    }};
