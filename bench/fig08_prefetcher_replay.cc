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

#include "figures.hh"

using namespace tacbench;

namespace {

struct Pf
{
    const char *name;
    PrefetcherKind l1;
    PrefetcherKind l2;
};

const Pf kPfs[] = {
    {"no-prefetch", PrefetcherKind::None, PrefetcherKind::None},
    {"IPCP", PrefetcherKind::Ipcp, PrefetcherKind::None},
    {"SPP", PrefetcherKind::None, PrefetcherKind::Spp},
    {"Bingo", PrefetcherKind::None, PrefetcherKind::Bingo},
    {"ISB", PrefetcherKind::None, PrefetcherKind::Isb},
};

const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::mcf,
                             Benchmark::canneal, Benchmark::cc,
                             Benchmark::pr, Benchmark::bf};

const auto key = [](const Pf &p, Benchmark b) {
    return std::string("fig08/") + p.name + "/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::fig08{
    "fig08", "Fig. 8 — LLC replay MPKI with prefetchers",
    [](SweepRunner &sweep) {
        for (const Pf &p : kPfs) {
            SystemConfig cfg = baselineConfig();
            cfg.l1Prefetcher = p.l1;
            cfg.l2Prefetcher = p.l2;
            for (Benchmark b : kSubset)
                registerPoint(sweep, key(p, b), cfg, b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::string, std::vector<double>> series;
        for (const Pf &p : kPfs) {
            for (Benchmark b : kSubset) {
                const RunResult &r = sweep.result(key(p, b));
                addRow(rows, p.name, benchmarkName(b), r.llcReplayMpki,
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
            addRow(rows, kv.first, "replay MPKI vs none", delta,
                   kv.first == std::string("no-prefetch") ? 0.0
                                                          : std::nan(""),
                   "%");
        }
        return rows;
    }};
