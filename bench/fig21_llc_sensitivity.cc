/**
 * @file
 * Paper Fig. 21: LLC-size sensitivity — proposal speedup vs same-size
 * baseline for 1MB to 8MB LLCs.
 *
 * Paper reference points: average gain declines from 6.3% at 1MB to
 * 4.2% at 8MB (bigger LLCs retain translations by capacity); mcf keeps
 * gaining because its data set still does not fit.
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    struct Geom
    {
        std::uint32_t sizeMb;
        Cycle latency;
        double paperAvg;
    };
    const Geom geoms[] = {
        {1, 18, 6.3}, {2, 20, 5.1}, {4, 22, std::nan("")}, {8, 24, 4.2}};

    const Benchmark subset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                                Benchmark::mcf, Benchmark::cc,
                                Benchmark::pr};

    static std::map<std::uint32_t, std::vector<double>> series;

    for (const Geom &g : geoms) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            Geom gg = g;
            const std::string key =
                "fig21/llc_" + std::to_string(g.sizeMb) + "M/" + bname;
            registerCase(key,
                         [key, gg, b, bname] {
                             SystemConfig base = baselineConfig();
                             base.llcPerCore.sizeBytes =
                                 gg.sizeMb * 1024 * 1024;
                             base.llcPerCore.latency = gg.latency;
                             const RunResult &rb =
                                 cachedRun(key + "/base", base, b);

                             SystemConfig enh = base;
                             TranslationAwareOptions o;
                             o.tempo = true;
                             applyTranslationAware(enh, o);
                             const RunResult &re =
                                 cachedRun(key + "/proposed", enh, b);

                             const double sp = speedup(rb, re);
                             addRow("LLC=" + std::to_string(gg.sizeMb) +
                                        "MB",
                                    bname, (sp - 1) * 100, std::nan(""),
                                    "%");
                             series[gg.sizeMb].push_back(sp);
                         });
        }
    }

    registerCase("fig21/summary", [&geoms] {
        for (const Geom &g : geoms)
            addRow("LLC=" + std::to_string(g.sizeMb) + "MB", "geomean",
                   (geomean(series[g.sizeMb]) - 1) * 100, g.paperAvg,
                   "%");
    });

    return benchMain(argc, argv, "Fig. 21 — LLC size sensitivity");
}
