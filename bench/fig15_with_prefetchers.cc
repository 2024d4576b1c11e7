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

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    struct Pf
    {
        const char *name;
        PrefetcherKind l1;
        PrefetcherKind l2;
        double paperAvg;
    };
    const Pf pfs[] = {
        {"IPCP", PrefetcherKind::Ipcp, PrefetcherKind::None, 11.2},
        {"Bingo", PrefetcherKind::None, PrefetcherKind::Bingo, 7.5},
        {"SPP", PrefetcherKind::None, PrefetcherKind::Spp, 6.4},
        {"ISB", PrefetcherKind::None, PrefetcherKind::Isb, 7.2},
    };

    const Benchmark subset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                                Benchmark::mcf, Benchmark::cc,
                                Benchmark::pr, Benchmark::radii};

    static std::map<std::string, std::vector<double>> series;

    for (const Pf &p : pfs) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            Pf pf = p;
            const std::string key =
                std::string("fig15/") + p.name + "/" + bname;
            registerCase(key,
                         [key, pf, b, bname] {
                             SystemConfig base = baselineConfig();
                             base.l1Prefetcher = pf.l1;
                             base.l2Prefetcher = pf.l2;
                             const RunResult &rb =
                                 cachedRun(key + "/base", base, b);

                             SystemConfig enh = base;
                             TranslationAwareOptions o;
                             o.tempo = true;
                             applyTranslationAware(enh, o);
                             const RunResult &re =
                                 cachedRun(key + "/proposed", enh, b);

                             const double sp = speedup(rb, re);
                             addRow(pf.name, bname, (sp - 1) * 100,
                                    std::nan(""), "%");
                             series[pf.name].push_back(sp);
                         });
        }
    }

    registerCase("fig15/summary", [&pfs] {
        for (const Pf &p : pfs)
            addRow(p.name, "geomean",
                   (geomean(series[p.name]) - 1) * 100, p.paperAvg, "%");
    });

    return benchMain(
        argc, argv,
        "Fig. 15 — proposal speedup on prefetching baselines");
}
