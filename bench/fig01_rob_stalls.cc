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

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    for (Benchmark b : kAllBenchmarks)
        registerPoint("base/" + benchmarkName(b), baselineConfig(), b);

    return benchMain(argc, argv,
                     "Fig. 1 — ROB-head stall cycles (T / R / non-replay)",
                     [] {
        std::vector<double> avgT, avgR, avgN;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep().result("base/" + name);
            addRow("T-stall avg", name, r.avgStallPerWalk, std::nan(""),
                   "cycles");
            addRow("R-stall avg", name, r.avgStallPerReplay, std::nan(""),
                   "cycles");
            addRow("NonReplay-stall avg", name, r.avgStallPerNonReplay,
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
        addRow("T-stall", "suite avg", mean(avgT), 33, "cycles");
        addRow("T-stall", "suite max", vmax(avgT), 54, "cycles");
        addRow("R-stall", "suite avg", mean(avgR), 191, "cycles");
        addRow("R-stall", "suite max", vmax(avgR), 226, "cycles");
        addRow("NonReplay-stall", "suite avg", mean(avgN), 47, "cycles");
    });
}
