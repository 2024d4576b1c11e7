/**
 * @file
 * Paper Fig. 2: speedup with *ideal* L2C/LLC treatment of leaf-level
 * translations (T), replay loads (R), and both (TR). An ideal cache
 * grants a hit at its own latency for the selected class while still
 * pushing the miss through the MSHRs (bandwidth is charged).
 *
 * Paper reference points (suite average): ideal LLC for TR = +30.7%;
 * ideal L2C+LLC for TR = +37.6%; ideal L2C for T only = +4.7%;
 * ideal L2C for R only = +30.2%.
 */

#include "figures.hh"

using namespace tacbench;

namespace {

struct Variant
{
    const char *name;
    double paperAvg; ///< percent improvement
    void (*apply)(SystemConfig &);
};

const Variant kVariants[] = {
    {"ideal-LLC(T)", std::nan(""),
     [](SystemConfig &c) { c.idealLlcTranslations = true; }},
    {"ideal-LLC(R)", std::nan(""),
     [](SystemConfig &c) { c.idealLlcReplays = true; }},
    {"ideal-LLC(TR)", 30.7,
     [](SystemConfig &c) {
         c.idealLlcTranslations = c.idealLlcReplays = true;
     }},
    {"ideal-L2C(T)+LLC(TR)", std::nan(""),
     [](SystemConfig &c) {
         c.idealLlcTranslations = c.idealLlcReplays = true;
         c.idealL2Translations = true;
     }},
    {"ideal-L2C+LLC(TR)", 37.6,
     [](SystemConfig &c) {
         c.idealLlcTranslations = c.idealLlcReplays = true;
         c.idealL2Translations = c.idealL2Replays = true;
     }},
};

// A memory-intensive subset keeps the figure fast; the suite-average
// rows are computed over it.
const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::radii};

const auto key = [](const Variant &v, Benchmark b) {
    return std::string("fig02/") + v.name + "/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::fig02{
    "fig02", "Fig. 2 — speedup with ideal L2C/LLC for T/R/TR",
    [](SweepRunner &sweep) {
        for (const Variant &v : kVariants) {
            SystemConfig cfg = baselineConfig();
            v.apply(cfg);
            for (Benchmark b : kSubset) {
                registerPoint(sweep, "base/" + benchmarkName(b),
                              baselineConfig(), b);
                registerPoint(sweep, key(v, b), cfg, b);
            }
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        for (const Variant &v : kVariants) {
            std::vector<double> speedups;
            for (Benchmark b : kSubset) {
                const std::string name = benchmarkName(b);
                const double s = speedup(sweep.result("base/" + name),
                                         sweep.result(key(v, b)));
                addRow(rows, v.name, name, (s - 1) * 100, std::nan(""), "%");
                speedups.push_back(s);
            }
            addRow(rows, v.name, "geomean", (geomean(speedups) - 1) * 100,
                   v.paperAvg, "%");
        }
        return rows;
    }};
