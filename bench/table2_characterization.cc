/**
 * @file
 * Paper Table II: per-benchmark characterization — STLB MPKI and the
 * L2C/LLC MPKIs for replay loads, non-replay loads and leaf-level
 * translations (PTL1), on the baseline system.
 */

#include "figures.hh"

using namespace tacbench;

const Figure tacbench::table2{
    "table2", "Table II — benchmark characterization (baseline)",
    [](SweepRunner &sweep) {
        for (Benchmark b : kAllBenchmarks)
            registerPoint(sweep, "base/" + benchmarkName(b), baselineConfig(),
                          b);
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep.result("base/" + name);
            const TableTwoRow &p = paperTableTwo(b);
            addRow(rows, "STLB MPKI", name, r.stlbMpki, p.stlbMpki, "MPKI");
            addRow(rows, "L2C replay", name, r.l2ReplayMpki, p.l2Replay,
                   "MPKI");
            addRow(rows, "L2C non-replay", name, r.l2NonReplayMpki,
                   p.l2NonReplay, "MPKI");
            addRow(rows, "L2C PTL1", name, r.l2Ptl1Mpki, p.l2Ptl1, "MPKI");
            addRow(rows, "LLC replay", name, r.llcReplayMpki, p.llcReplay,
                   "MPKI");
            addRow(rows, "LLC non-replay", name, r.llcNonReplayMpki,
                   p.llcNonReplay, "MPKI");
            addRow(rows, "LLC PTL1", name, r.llcPtl1Mpki, p.llcPtl1, "MPKI");
        }
        return rows;
    }};
