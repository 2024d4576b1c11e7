/**
 * @file
 * Paper Fig. 20: L2C-size sensitivity — proposal speedup vs same-size
 * baseline for 256KB to 1MB L2 caches (larger L2Cs get slightly higher
 * latency, as the paper notes for 1MB).
 *
 * Paper reference points: average gain roughly flat at 768KB and lower
 * at 1MB (baseline retains more translations by capacity); xalancbmk
 * keeps gaining; mcf's gain shrinks once translations fit.
 */

#include <map>

#include "figures.hh"

using namespace tacbench;

namespace {

struct Geom
{
    std::uint32_t sizeKb;
    std::uint32_t ways;
    Cycle latency;
};

const Geom kGeoms[] = {
    {256, 8, 9}, {512, 8, 10}, {768, 12, 11}, {1024, 16, 12}};

const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc,
                             Benchmark::pr};

const auto key = [](const Geom &g, Benchmark b) {
    return "fig20/l2_" + std::to_string(g.sizeKb) + "K/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::fig20{
    "fig20", "Fig. 20 — L2C size sensitivity",
    [](SweepRunner &sweep) {
        for (const Geom &g : kGeoms) {
            SystemConfig base = baselineConfig();
            base.l2.sizeBytes = g.sizeKb * 1024;
            base.l2.ways = g.ways;
            base.l2.latency = g.latency;
            for (Benchmark b : kSubset) {
                registerPoint(sweep, key(g, b) + "/base", base, b);
                registerPoint(sweep, key(g, b) + "/proposed",
                              proposedConfig(base), b);
            }
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::uint32_t, std::vector<double>> series;
        for (const Geom &g : kGeoms) {
            for (Benchmark b : kSubset) {
                const double sp =
                    speedup(sweep.result(key(g, b) + "/base"),
                            sweep.result(key(g, b) + "/proposed"));
                addRow(rows, "L2C=" + std::to_string(g.sizeKb) + "KB",
                       benchmarkName(b), (sp - 1) * 100, std::nan(""), "%");
                series[g.sizeKb].push_back(sp);
            }
        }
        for (const Geom &g : kGeoms)
            addRow(rows, "L2C=" + std::to_string(g.sizeKb) + "KB", "geomean",
                   (geomean(series[g.sizeKb]) - 1) * 100, std::nan(""),
                   "% (paper: flat to declining past 512KB)");
        return rows;
    }};
