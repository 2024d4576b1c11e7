/**
 * @file
 * Paper Fig. 15: speedup of the full proposal when the baseline already
 * has a state-of-the-art data prefetcher.
 *
 * Paper reference points (suite average speedup of the proposal on a
 * prefetching baseline): IPCP +11.2%, Bingo +7.5%, SPP +6.4%,
 * ISB +7.2% — slightly larger than without prefetching because these
 * prefetchers do not cover the irregular (replay) misses.
 */

#include <map>

#include "figures.hh"

using namespace tacbench;

namespace {

struct Pf
{
    const char *name;
    PrefetcherKind l1;
    PrefetcherKind l2;
    double paperAvg;
};

const Pf kPfs[] = {
    {"IPCP", PrefetcherKind::Ipcp, PrefetcherKind::None, 11.2},
    {"Bingo", PrefetcherKind::None, PrefetcherKind::Bingo, 7.5},
    {"SPP", PrefetcherKind::None, PrefetcherKind::Spp, 6.4},
    {"ISB", PrefetcherKind::None, PrefetcherKind::Isb, 7.2},
};

const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc,
                             Benchmark::pr, Benchmark::radii};

const auto key = [](const Pf &p, Benchmark b) {
    return std::string("fig15/") + p.name + "/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::fig15{
    "fig15", "Fig. 15 — proposal speedup on prefetching baselines",
    [](SweepRunner &sweep) {
        for (const Pf &p : kPfs) {
            SystemConfig base = baselineConfig();
            base.l1Prefetcher = p.l1;
            base.l2Prefetcher = p.l2;
            for (Benchmark b : kSubset) {
                registerPoint(sweep, key(p, b) + "/base", base, b);
                registerPoint(sweep, key(p, b) + "/proposed",
                              proposedConfig(base), b);
            }
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::string, std::vector<double>> series;
        for (const Pf &p : kPfs) {
            for (Benchmark b : kSubset) {
                const double sp =
                    speedup(sweep.result(key(p, b) + "/base"),
                            sweep.result(key(p, b) + "/proposed"));
                addRow(rows, p.name, benchmarkName(b), (sp - 1) * 100,
                       std::nan(""), "%");
                series[p.name].push_back(sp);
            }
        }
        for (const Pf &p : kPfs)
            addRow(rows, p.name, "geomean",
                   (geomean(series[p.name]) - 1) * 100, p.paperAvg, "%");
        return rows;
    }};
