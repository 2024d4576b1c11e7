/**
 * @file
 * Paper Fig. 21: LLC-size sensitivity — proposal speedup vs same-size
 * baseline for 1MB to 8MB LLCs.
 *
 * Paper reference points: average gain declines from 6.3% at 1MB to
 * 4.2% at 8MB (bigger LLCs retain translations by capacity); mcf keeps
 * gaining because its data set still does not fit.
 */

#include <map>

#include "figures.hh"

using namespace tacbench;

namespace {

struct Geom
{
    std::uint32_t sizeMb;
    Cycle latency;
    double paperAvg;
};

const Geom kGeoms[] = {
    {1, 18, 6.3}, {2, 20, 5.1}, {4, 22, std::nan("")}, {8, 24, 4.2}};

const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc,
                             Benchmark::pr};

const auto key = [](const Geom &g, Benchmark b) {
    return "fig21/llc_" + std::to_string(g.sizeMb) + "M/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::fig21{
    "fig21", "Fig. 21 — LLC size sensitivity",
    [](SweepRunner &sweep) {
        for (const Geom &g : kGeoms) {
            SystemConfig base = baselineConfig();
            base.llcPerCore.sizeBytes = g.sizeMb * 1024 * 1024;
            base.llcPerCore.latency = g.latency;
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
                addRow(rows, "LLC=" + std::to_string(g.sizeMb) + "MB",
                       benchmarkName(b), (sp - 1) * 100, std::nan(""), "%");
                series[g.sizeMb].push_back(sp);
            }
        }
        for (const Geom &g : kGeoms)
            addRow(rows, "LLC=" + std::to_string(g.sizeMb) + "MB", "geomean",
                   (geomean(series[g.sizeMb]) - 1) * 100, g.paperAvg, "%");
        return rows;
    }};
