/**
 * @file
 * Paper Fig. 4: leaf-level translation MPKI at the LLC under LRU,
 * SRRIP, DRRIP, SHiP and Hawkeye.
 *
 * Paper reference points (change vs LRU, suite average): SRRIP -14.72%,
 * DRRIP -27.45%, SHiP -33.3%, Hawkeye +44.1%.
 */

#include <map>

#include "figures.hh"

using namespace tacbench;

const std::pair<const char *, PolicyKind> kPolicies[] = {
    {"LRU", PolicyKind::LRU},       {"SRRIP", PolicyKind::SRRIP},
    {"DRRIP", PolicyKind::DRRIP},   {"SHiP", PolicyKind::SHiP},
    {"Hawkeye", PolicyKind::Hawkeye},
};

const auto key = [](const char *pname, Benchmark b) {
    return std::string("fig04/") + pname + "/" + benchmarkName(b);
};

const Figure tacbench::fig04{
    "fig04", "Fig. 4 — leaf-translation MPKI at LLC by policy",
    [](SweepRunner &sweep) {
        for (auto [pname, kind] : kPolicies) {
            SystemConfig cfg = baselineConfig();
            cfg.llcPolicy = kind;
            for (Benchmark b : kAllBenchmarks)
                registerPoint(sweep, key(pname, b), cfg, b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::string, std::vector<double>> series;
        for (auto [pname, kind] : kPolicies) {
            for (Benchmark b : kAllBenchmarks) {
                const RunResult &r = sweep.result(key(pname, b));
                addRow(rows, pname, benchmarkName(b), r.llcPtl1Mpki,
                       std::nan(""), "MPKI");
                series[pname].push_back(r.llcPtl1Mpki);
            }
        }
        const double lru = mean(series["LRU"]);
        const struct { const char *n; double paper; } deltas[] = {
            {"SRRIP", -14.72}, {"DRRIP", -27.45}, {"SHiP", -33.3},
            {"Hawkeye", +44.1},
        };
        addRow(rows, "LRU", "suite avg MPKI", lru, std::nan(""), "MPKI");
        for (auto d : deltas) {
            const double pct =
                lru > 0 ? (mean(series[d.n]) / lru - 1) * 100 : 0.0;
            addRow(rows, std::string(d.n) + " vs LRU", "suite avg", pct,
                   d.paper, "%");
        }
        return rows;
    }};
