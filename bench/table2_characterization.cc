/**
 * @file
 * Paper Table II: per-benchmark characterization — STLB MPKI and the
 * L2C/LLC MPKIs for replay loads, non-replay loads and leaf-level
 * translations (PTL1), on the baseline system.
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    for (Benchmark b : kAllBenchmarks)
        registerPoint("base/" + benchmarkName(b), baselineConfig(), b);

    return benchMain(argc, argv,
                     "Table II — benchmark characterization (baseline)",
                     [] {
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep().result("base/" + name);
            const TableTwoRow &p = paperTableTwo(b);
            addRow("STLB MPKI", name, r.stlbMpki, p.stlbMpki, "MPKI");
            addRow("L2C replay", name, r.l2ReplayMpki, p.l2Replay, "MPKI");
            addRow("L2C non-replay", name, r.l2NonReplayMpki,
                   p.l2NonReplay, "MPKI");
            addRow("L2C PTL1", name, r.l2Ptl1Mpki, p.l2Ptl1, "MPKI");
            addRow("LLC replay", name, r.llcReplayMpki, p.llcReplay,
                   "MPKI");
            addRow("LLC non-replay", name, r.llcNonReplayMpki,
                   p.llcNonReplay, "MPKI");
            addRow("LLC PTL1", name, r.llcPtl1Mpki, p.llcPtl1, "MPKI");
        }
    });
}
