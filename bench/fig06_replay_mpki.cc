/**
 * @file
 * Paper Fig. 6: replay-load MPKI at the LLC under the baseline
 * replacement policies.
 *
 * Paper reference point: replacement policy choice has essentially no
 * effect on replay MPKI — replay blocks are dead on arrival, so no
 * recency/prediction scheme can keep the ones that matter.
 */

#include <map>

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const std::pair<const char *, PolicyKind> policies[] = {
        {"LRU", PolicyKind::LRU},       {"SRRIP", PolicyKind::SRRIP},
        {"DRRIP", PolicyKind::DRRIP},   {"SHiP", PolicyKind::SHiP},
        {"Hawkeye", PolicyKind::Hawkeye},
    };

    auto key = [](const char *pname, Benchmark b) {
        return std::string("fig06/") + pname + "/" + benchmarkName(b);
    };
    for (auto [pname, kind] : policies) {
        SystemConfig cfg = baselineConfig();
        cfg.llcPolicy = kind;
        for (Benchmark b : kAllBenchmarks)
            registerPoint(key(pname, b), cfg, b);
    }

    return benchMain(argc, argv,
                     "Fig. 6 — replay MPKI at LLC by replacement policy",
                     [&] {
        std::map<std::string, std::vector<double>> series;
        for (auto [pname, kind] : policies) {
            for (Benchmark b : kAllBenchmarks) {
                const RunResult &r = sweep().result(key(pname, b));
                addRow(pname, benchmarkName(b), r.llcReplayMpki,
                       std::nan(""), "MPKI");
                series[pname].push_back(r.llcReplayMpki);
            }
        }
        for (auto &kv : series)
            addRow(kv.first, "suite avg", mean(kv.second), std::nan(""),
                   "MPKI (policy-invariant per paper)");
    });
}
