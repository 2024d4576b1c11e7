/**
 * @file
 * Paper Fig. 8: LLC replay MPKI with and without state-of-the-art data
 * prefetchers (IPCP at L1D; SPP/Bingo/ISB at L2C).
 *
 * Paper reference point: spatial prefetchers barely move replay MPKI
 * (<1% improvement) because they cannot (or cannot profitably) cross
 * pages; temporal ISB helps some benchmarks by replaying recorded
 * physical sequences.
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
    };
    const Pf pfs[] = {
        {"no-prefetch", PrefetcherKind::None, PrefetcherKind::None},
        {"IPCP", PrefetcherKind::Ipcp, PrefetcherKind::None},
        {"SPP", PrefetcherKind::None, PrefetcherKind::Spp},
        {"Bingo", PrefetcherKind::None, PrefetcherKind::Bingo},
        {"ISB", PrefetcherKind::None, PrefetcherKind::Isb},
    };

    const Benchmark subset[] = {Benchmark::xalancbmk, Benchmark::mcf,
                                Benchmark::canneal, Benchmark::cc,
                                Benchmark::pr, Benchmark::bf};

    static std::map<std::string, std::vector<double>> series;

    for (const Pf &p : pfs) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            Pf pf = p;
            const std::string key =
                std::string("fig08/") + p.name + "/" + bname;
            registerCase(key,
                         [key, pf, b, bname] {
                             SystemConfig cfg = baselineConfig();
                             cfg.l1Prefetcher = pf.l1;
                             cfg.l2Prefetcher = pf.l2;
                             const RunResult &r = cachedRun(key, cfg, b);
                             addRow(pf.name, bname, r.llcReplayMpki,
                                    std::nan(""), "MPKI");
                             series[pf.name].push_back(r.llcReplayMpki);
                         });
        }
    }

    registerCase("fig08/summary", [] {
        auto avg = [](const std::vector<double> &v) {
            double s = 0;
            for (double x : v)
                s += x;
            return v.empty() ? 0.0 : s / double(v.size());
        };
        const double base = avg(series["no-prefetch"]);
        for (auto &kv : series) {
            const double delta =
                base > 0 ? (kv.second.empty()
                                ? 0.0
                                : (avg(kv.second) / base - 1) * 100)
                         : 0.0;
            addRow(kv.first, "replay MPKI vs none", delta,
                   kv.first == std::string("no-prefetch") ? 0.0
                                                          : std::nan(""),
                   "%");
        }
    });

    return benchMain(argc, argv,
                     "Fig. 8 — LLC replay MPKI with prefetchers");
}
