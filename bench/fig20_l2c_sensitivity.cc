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

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    struct Geom
    {
        std::uint32_t sizeKb;
        std::uint32_t ways;
        Cycle latency;
    };
    const Geom geoms[] = {
        {256, 8, 9}, {512, 8, 10}, {768, 12, 11}, {1024, 16, 12}};

    const Benchmark subset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                                Benchmark::mcf, Benchmark::cc,
                                Benchmark::pr};

    static std::map<std::uint32_t, std::vector<double>> series;

    for (const Geom &g : geoms) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            Geom gg = g;
            const std::string key =
                "fig20/l2_" + std::to_string(g.sizeKb) + "K/" + bname;
            registerCase(key,
                         [key, gg, b, bname] {
                             SystemConfig base = baselineConfig();
                             base.l2.sizeBytes = gg.sizeKb * 1024;
                             base.l2.ways = gg.ways;
                             base.l2.latency = gg.latency;
                             const RunResult &rb =
                                 cachedRun(key + "/base", base, b);

                             SystemConfig enh = base;
                             TranslationAwareOptions o;
                             o.tempo = true;
                             applyTranslationAware(enh, o);
                             const RunResult &re =
                                 cachedRun(key + "/proposed", enh, b);

                             const double sp = speedup(rb, re);
                             addRow("L2C=" + std::to_string(gg.sizeKb) +
                                        "KB",
                                    bname, (sp - 1) * 100, std::nan(""),
                                    "%");
                             series[gg.sizeKb].push_back(sp);
                         });
        }
    }

    registerCase("fig20/summary", [&geoms] {
        for (const Geom &g : geoms)
            addRow("L2C=" + std::to_string(g.sizeKb) + "KB", "geomean",
                   (geomean(series[g.sizeKb]) - 1) * 100, std::nan(""),
                   "% (paper: flat to declining past 512KB)");
    });

    return benchMain(argc, argv, "Fig. 20 — L2C size sensitivity");
}
