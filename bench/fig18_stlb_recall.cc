/**
 * @file
 * Paper Fig. 18: recall distance of translations at the STLB itself —
 * the argument against dead-entry bypassing at the TLB (CbPred/DpPred):
 * on average more than 40% of STLB entries have a recall distance
 * beyond 50, so bypassing dead entries cannot expedite the costly
 * misses.
 */

#include "bench_common.hh"
#include "sim/system.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    // The recall histogram lives in the STLB's profiler, not in
    // RunResult, so each point builds its System here instead of
    // joining the sweep.
    return benchMain(argc, argv,
                     "Fig. 18 — recall distance of translations at STLB",
                     [] {
        std::vector<double> over50;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            SystemConfig cfg = baselineConfig();
            cfg.profileStlbRecall = true;
            std::vector<std::unique_ptr<Workload>> w;
            w.push_back(makeWorkload(b, cfg.seed));
            System sys(cfg, std::move(w));
            sys.warmup(defaultWarmup());
            sys.run(defaultInstructions());

            const Histogram &h =
                sys.stlb().recallProfiler()->translationHist();
            const double f = (1 - h.fractionAtOrBelow(50)) * 100;
            addRow("STLB recall>50", name, f, std::nan(""), "%");
            over50.push_back(f);
        }
        addRow("STLB recall>50", "suite avg", mean(over50), 40.0,
               "% (paper: >40%)");
    });
}
