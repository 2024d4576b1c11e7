/**
 * @file
 * Paper Fig. 1: average and maximum cycles a demand access stalls at the
 * head of the ROB, split into the translation phase of STLB-missing
 * accesses (T), the replay-data phase (R), and non-replay loads.
 *
 * Paper reference points (averages across their suite): STLB-miss
 * translation stall avg 33 / max 54 cycles; replay stall avg 191 /
 * max 226; non-replay loads avg 47.
 */

#include <algorithm>

#include "figures.hh"

using namespace tacbench;

const Figure tacbench::fig01{
    "fig01", "Fig. 1 — ROB-head stall cycles (T / R / non-replay)",
    [](SweepRunner &sweep) {
        for (Benchmark b : kAllBenchmarks)
            registerPoint(sweep, "base/" + benchmarkName(b), baselineConfig(),
                          b);
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> avgT, avgR, avgN;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep.result("base/" + name);
            addRow(rows, "T-stall avg", name, r.avgStallPerWalk, std::nan(""),
                   "cycles");
            addRow(rows, "R-stall avg", name, r.avgStallPerReplay,
                   std::nan(""), "cycles");
            addRow(rows, "NonReplay-stall avg", name, r.avgStallPerNonReplay,
                   std::nan(""), "cycles");
            avgT.push_back(r.avgStallPerWalk);
            avgR.push_back(r.avgStallPerReplay);
            avgN.push_back(r.avgStallPerNonReplay);
        }
        auto vmax = [](const std::vector<double> &v) {
            double m = 0;
            for (double x : v)
                m = std::max(m, x);
            return m;
        };
        addRow(rows, "T-stall", "suite avg", mean(avgT), 33, "cycles");
        addRow(rows, "T-stall", "suite max", vmax(avgT), 54, "cycles");
        addRow(rows, "R-stall", "suite avg", mean(avgR), 191, "cycles");
        addRow(rows, "R-stall", "suite max", vmax(avgR), 226, "cycles");
        addRow(rows, "NonReplay-stall", "suite avg", mean(avgN), 47, "cycles");
        return rows;
    }};
