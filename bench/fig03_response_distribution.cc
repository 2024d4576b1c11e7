/**
 * @file
 * Paper Fig. 3: which level of the hierarchy services leaf-level
 * translations after an STLB miss, and their replay loads.
 *
 * Paper reference points (suite average for translations): 23% L1D,
 * 55.6% L2C, 15.1% LLC, 6.3% DRAM; more than 80% of replay loads miss
 * the LLC.
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    for (Benchmark b : kAllBenchmarks)
        registerPoint("base/" + benchmarkName(b), baselineConfig(), b);

    return benchMain(
        argc, argv,
        "Fig. 3 — response distribution for leaf translations / replays",
        [] {
            std::vector<double> tL1, tL2, tLlc, tDram, rDram;
            for (Benchmark b : kAllBenchmarks) {
                const std::string name = benchmarkName(b);
                const RunResult &r = sweep().result("base/" + name);
                addRow("T from L1D", name, r.leafL1D * 100, std::nan(""),
                       "%");
                addRow("T from L2C", name, r.leafL2C * 100, std::nan(""),
                       "%");
                addRow("T from LLC", name, r.leafLLC * 100, std::nan(""),
                       "%");
                addRow("T from DRAM", name, r.leafDram * 100, std::nan(""),
                       "%");
                addRow("R from DRAM", name, r.replayDram * 100,
                       std::nan(""), "%");
                tL1.push_back(r.leafL1D * 100);
                tL2.push_back(r.leafL2C * 100);
                tLlc.push_back(r.leafLLC * 100);
                tDram.push_back(r.leafDram * 100);
                rDram.push_back(r.replayDram * 100);
            }
            addRow("T from L1D", "suite avg", mean(tL1), 23.0, "%");
            addRow("T from L2C", "suite avg", mean(tL2), 55.6, "%");
            addRow("T from LLC", "suite avg", mean(tLlc), 15.1, "%");
            addRow("T from DRAM", "suite avg", mean(tDram), 6.3, "%");
            addRow("R from DRAM", "suite avg", mean(rDram), 80.0, "%");
        });
}
