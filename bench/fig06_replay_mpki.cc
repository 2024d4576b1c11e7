/**
 * @file
 * Paper Fig. 6: replay-load MPKI at the LLC under the baseline
 * replacement policies.
 *
 * Paper reference point: replacement policy choice has essentially no
 * effect on replay MPKI — replay blocks are dead on arrival, so no
 * recency/prediction scheme can keep the ones that matter.
 */

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

    static std::map<std::string, std::vector<double>> series;

    for (auto [pname, kind] : policies) {
        for (Benchmark b : kAllBenchmarks) {
            const std::string bname = benchmarkName(b);
            PolicyKind k = kind;
            std::string pn = pname;
            const std::string key =
                std::string("fig06/") + pname + "/" + bname;
            registerCase(key,
                         [key, k, pn, b, bname] {
                             SystemConfig cfg = baselineConfig();
                             cfg.llcPolicy = k;
                             const RunResult &r = cachedRun(key, cfg, b);
                             addRow(pn, bname, r.llcReplayMpki,
                                    std::nan(""), "MPKI");
                             series[pn].push_back(r.llcReplayMpki);
                         });
        }
    }

    registerCase("fig06/summary", [] {
        auto avg = [](const std::vector<double> &v) {
            double s = 0;
            for (double x : v)
                s += x;
            return v.empty() ? 0.0 : s / double(v.size());
        };
        for (auto &kv : series)
            addRow(kv.first, "suite avg", avg(kv.second), std::nan(""),
                   "MPKI (policy-invariant per paper)");
    });

    return benchMain(argc, argv,
                     "Fig. 6 — replay MPKI at LLC by replacement policy");
}
