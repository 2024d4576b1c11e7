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

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const std::uint32_t sizes[] = {512, 1024, 2048, 4096};
    const Benchmark subset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                                Benchmark::mcf, Benchmark::cc,
                                Benchmark::pr};

    static std::map<std::uint32_t, std::vector<double>> series;

    for (std::uint32_t entries : sizes) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            const std::string key =
                "fig19/stlb" + std::to_string(entries) + "/" + bname;
            registerCase(key,
                         [key, entries, b, bname] {
                             SystemConfig base = baselineConfig();
                             base.stlbEntries = entries;
                             const RunResult &rb =
                                 cachedRun(key + "/base", base, b);

                             SystemConfig enh = base;
                             TranslationAwareOptions o;
                             o.tempo = true;
                             applyTranslationAware(enh, o);
                             const RunResult &re =
                                 cachedRun(key + "/proposed", enh, b);

                             const double sp = speedup(rb, re);
                             addRow("STLB=" + std::to_string(entries),
                                    bname, (sp - 1) * 100, std::nan(""),
                                    "% (stlbMPKI " +
                                        std::to_string(rb.stlbMpki) +
                                        ")");
                             series[entries].push_back(sp);
                         });
        }
    }

    registerCase("fig19/summary", [&sizes] {
        for (std::uint32_t e : sizes)
            addRow("STLB=" + std::to_string(e), "geomean",
                   (geomean(series[e]) - 1) * 100, std::nan(""),
                   "% (paper: positive at all sizes, shrinking)");
    });

    return benchMain(argc, argv, "Fig. 19 — STLB size sensitivity");
}
