/**
 * @file
 * Paper Fig. 3: which level of the hierarchy services leaf-level
 * translations after an STLB miss, and their replay loads.
 *
 * Paper reference points (suite average for translations): 23% L1D,
 * 55.6% L2C, 15.1% LLC, 6.3% DRAM; more than 80% of replay loads miss
 * the LLC.
 */

#include "figures.hh"

using namespace tacbench;

const Figure tacbench::fig03{
    "fig03", "Fig. 3 — response distribution for leaf translations / replays",
    [](SweepRunner &sweep) {
        for (Benchmark b : kAllBenchmarks)
            registerPoint(sweep, "base/" + benchmarkName(b), baselineConfig(),
                          b);
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> tL1, tL2, tLlc, tDram, rDram;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep.result("base/" + name);
            addRow(rows, "T from L1D", name, r.leafL1D * 100, std::nan(""),
                   "%");
            addRow(rows, "T from L2C", name, r.leafL2C * 100, std::nan(""),
                   "%");
            addRow(rows, "T from LLC", name, r.leafLLC * 100, std::nan(""),
                   "%");
            addRow(rows, "T from DRAM", name, r.leafDram * 100, std::nan(""),
                   "%");
            addRow(rows, "R from DRAM", name, r.replayDram * 100,
                   std::nan(""), "%");
            tL1.push_back(r.leafL1D * 100);
            tL2.push_back(r.leafL2C * 100);
            tLlc.push_back(r.leafLLC * 100);
            tDram.push_back(r.leafDram * 100);
            rDram.push_back(r.replayDram * 100);
        }
        addRow(rows, "T from L1D", "suite avg", mean(tL1), 23.0, "%");
        addRow(rows, "T from L2C", "suite avg", mean(tL2), 55.6, "%");
        addRow(rows, "T from LLC", "suite avg", mean(tLlc), 15.1, "%");
        addRow(rows, "T from DRAM", "suite avg", mean(tDram), 6.3, "%");
        addRow(rows, "R from DRAM", "suite avg", mean(rDram), 80.0, "%");
        return rows;
    }};
