/**
 * @file
 * Characterization example: reproduces the metrics of the paper's
 * Table II for every benchmark stand-in on the baseline system
 * (DRRIP@L2, SHiP@LLC, no prefetching) and prints them next to the
 * published values. Useful for checking that each synthetic workload
 * lands in its intended STLB-MPKI band.
 */

#include <cstdio>

#include "sim/runner.hh"

int
main()
{
    using namespace tacsim;

    std::printf("%-10s %8s %8s | %8s %8s %8s | %8s %8s %8s | %6s\n",
                "bench", "STLBmpki", "(paper)", "L2.rep", "L2.nrep",
                "L2.ptl1", "LLC.rep", "LLC.nrep", "LLC.ptl1", "IPC");
    for (Benchmark b : kAllBenchmarks) {
        SystemConfig cfg;
        RunResult r = runSpecMix(cfg, {benchmarkName(b)});
        const TableTwoRow &p = paperTableTwo(b);
        std::printf("%-10s %8.2f %8.2f | %8.2f %8.2f %8.2f | %8.2f %8.2f "
                    "%8.2f | %6.3f\n",
                    r.benchmark.c_str(), r.stlbMpki, p.stlbMpki,
                    r.l2ReplayMpki, r.l2NonReplayMpki, r.l2Ptl1Mpki,
                    r.llcReplayMpki, r.llcNonReplayMpki, r.llcPtl1Mpki,
                    r.ipc);
    }
    return 0;
}
