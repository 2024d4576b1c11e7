/**
 * @file
 * Paper Fig. 4: leaf-level translation MPKI at the LLC under LRU,
 * SRRIP, DRRIP, SHiP and Hawkeye.
 *
 * Paper reference points (change vs LRU, suite average): SRRIP -14.72%,
 * DRRIP -27.45%, SHiP -33.3%, Hawkeye +44.1%.
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
            const std::string key =
                std::string("fig04/") + pname + "/" + bname;
            PolicyKind k = kind;
            std::string pn = pname;
            registerCase(key, [key, k, pn, b, bname] {
                SystemConfig cfg = baselineConfig();
                cfg.llcPolicy = k;
                const RunResult &r = cachedRun(key, cfg, b);
                addRow(pn, bname, r.llcPtl1Mpki, std::nan(""), "MPKI");
                series[pn].push_back(r.llcPtl1Mpki);
            });
        }
    }

    registerCase("fig04/summary", [] {
        auto avg = [](const std::vector<double> &v) {
            double s = 0;
            for (double x : v)
                s += x;
            return v.empty() ? 0.0 : s / double(v.size());
        };
        const double lru = avg(series["LRU"]);
        const struct { const char *n; double paper; } deltas[] = {
            {"SRRIP", -14.72}, {"DRRIP", -27.45}, {"SHiP", -33.3},
            {"Hawkeye", +44.1},
        };
        addRow("LRU", "suite avg MPKI", lru, std::nan(""), "MPKI");
        for (auto d : deltas) {
            const double pct =
                lru > 0 ? (avg(series[d.n]) / lru - 1) * 100 : 0.0;
            addRow(std::string(d.n) + " vs LRU", "suite avg", pct,
                   d.paper, "%");
        }
    });

    return benchMain(argc, argv,
                     "Fig. 4 — leaf-translation MPKI at LLC by policy");
}
