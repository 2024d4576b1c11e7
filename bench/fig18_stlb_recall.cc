/**
 * @file
 * Paper Fig. 18: recall distance of translations at the STLB itself —
 * the argument against dead-entry bypassing at the TLB (CbPred/DpPred):
 * on average more than 40% of STLB entries have a recall distance
 * beyond 50, so bypassing dead entries cannot expedite the costly
 * misses.
 */

#include "figures.hh"

using namespace tacbench;

const auto key = [](Benchmark b) {
    return std::string("fig18/") + benchmarkName(b);
};

const Figure tacbench::fig18{
    "fig18", "Fig. 18 — recall distance of translations at STLB",
    [](SweepRunner &sweep) {
        SystemConfig cfg = baselineConfig();
        cfg.profileStlbRecall = true;
        for (Benchmark b : kAllBenchmarks)
            registerPoint(sweep, key(b), cfg, b);
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> over50;
        for (Benchmark b : kAllBenchmarks) {
            const Histogram &h =
                sweep.result(key(b)).recall.at("stlb.recall.translation");
            const double f = (1 - h.fractionAtOrBelow(50)) * 100;
            addRow(rows, "STLB recall>50", benchmarkName(b), f, std::nan(""),
                   "%");
            over50.push_back(f);
        }
        addRow(rows, "STLB recall>50", "suite avg", mean(over50), 40.0,
               "% (paper: >40%)");
        return rows;
    }};
