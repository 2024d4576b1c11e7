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

#include "bench_common.hh"

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

} // namespace

int
main(int argc, char **argv)
{
    // A memory-intensive subset keeps the binary fast; the suite-average
    // rows are computed over it.
    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::radii};

    auto key = [](const Variant &v, Benchmark b) {
        return std::string("fig02/") + v.name + "/" + benchmarkName(b);
    };
    for (const Variant &v : kVariants) {
        SystemConfig cfg = baselineConfig();
        v.apply(cfg);
        for (Benchmark b : subset) {
            registerPoint("base/" + benchmarkName(b), baselineConfig(), b);
            registerPoint(key(v, b), cfg, b);
        }
    }

    return benchMain(argc, argv,
                     "Fig. 2 — speedup with ideal L2C/LLC for T/R/TR", [&] {
        for (const Variant &v : kVariants) {
            std::vector<double> speedups;
            for (Benchmark b : subset) {
                const std::string name = benchmarkName(b);
                const double s = speedup(sweep().result("base/" + name),
                                         sweep().result(key(v, b)));
                addRow(v.name, name, (s - 1) * 100, std::nan(""), "%");
                speedups.push_back(s);
            }
            addRow(v.name, "geomean", (geomean(speedups) - 1) * 100,
                   v.paperAvg, "%");
        }
    });
}
