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

#include <map>

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

    auto key = [](const Pf &p, Benchmark b) {
        return std::string("fig08/") + p.name + "/" + benchmarkName(b);
    };
    for (const Pf &p : pfs) {
        SystemConfig cfg = baselineConfig();
        cfg.l1Prefetcher = p.l1;
        cfg.l2Prefetcher = p.l2;
        for (Benchmark b : subset)
            registerPoint(key(p, b), cfg, b);
    }

    return benchMain(argc, argv,
                     "Fig. 8 — LLC replay MPKI with prefetchers", [&] {
        std::map<std::string, std::vector<double>> series;
        for (const Pf &p : pfs) {
            for (Benchmark b : subset) {
                const RunResult &r = sweep().result(key(p, b));
                addRow(p.name, benchmarkName(b), r.llcReplayMpki,
                       std::nan(""), "MPKI");
                series[p.name].push_back(r.llcReplayMpki);
            }
        }
        const double base = mean(series["no-prefetch"]);
        for (auto &kv : series) {
            const double delta =
                base > 0 ? (kv.second.empty()
                                ? 0.0
                                : (mean(kv.second) / base - 1) * 100)
                         : 0.0;
            addRow(kv.first, "replay MPKI vs none", delta,
                   kv.first == std::string("no-prefetch") ? 0.0
                                                          : std::nan(""),
                   "%");
        }
    });
}
