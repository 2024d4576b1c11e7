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

#include "figures.hh"

using namespace tacbench;

const std::pair<const char *, PolicyKind> kPolicies[] = {
    {"LRU", PolicyKind::LRU},       {"SRRIP", PolicyKind::SRRIP},
    {"DRRIP", PolicyKind::DRRIP},   {"SHiP", PolicyKind::SHiP},
    {"Hawkeye", PolicyKind::Hawkeye},
};

const auto key = [](const char *pname, Benchmark b) {
    return std::string("fig06/") + pname + "/" + benchmarkName(b);
};

const Figure tacbench::fig06{
    "fig06", "Fig. 6 — replay MPKI at LLC by replacement policy",
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
                addRow(rows, pname, benchmarkName(b), r.llcReplayMpki,
                       std::nan(""), "MPKI");
                series[pname].push_back(r.llcReplayMpki);
            }
        }
        for (auto &kv : series)
            addRow(rows, kv.first, "suite avg", mean(kv.second), std::nan(""),
                   "MPKI (policy-invariant per paper)");
        return rows;
    }};
