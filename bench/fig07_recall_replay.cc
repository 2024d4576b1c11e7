/**
 * @file
 * Paper Fig. 7: recall-distance distribution of replay-load blocks at
 * the LLC (A) and L2C (B).
 *
 * Paper reference point: more than 60% of replay blocks have a recall
 * distance beyond 50 unique set accesses — retention cannot save them,
 * which is why the paper prefetches them (ATP) instead.
 */

#include "bench_common.hh"
#include "sim/system.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::bf};

    // The recall histograms live in the profilers, not in RunResult, so
    // each point builds its System here instead of joining the sweep.
    return benchMain(argc, argv,
                     "Fig. 7 — recall distance of replays at LLC/L2C", [&] {
        std::vector<double> over50;
        for (Benchmark b : subset) {
            const std::string name = benchmarkName(b);
            SystemConfig cfg = baselineConfig();
            cfg.profileCacheRecall = true;
            std::vector<std::unique_ptr<Workload>> w;
            w.push_back(makeWorkload(b, cfg.seed));
            System sys(cfg, std::move(w));
            sys.warmup(defaultWarmup());
            sys.run(defaultInstructions());

            const Histogram &llc = sys.llc().recallProfiler()->replayHist();
            const Histogram &l2c = sys.l2().recallProfiler()->replayHist();
            const double fLlc = (1 - llc.fractionAtOrBelow(50)) * 100;
            const double fL2c = (1 - l2c.fractionAtOrBelow(50)) * 100;
            addRow("LLC recall>50", name, fLlc, std::nan(""), "%");
            addRow("L2C recall>50", name, fL2c, std::nan(""), "%");
            over50.push_back(fLlc);
        }
        addRow("LLC recall>50", "suite avg", mean(over50), 60.0, "%");
    });
}
