/**
 * @file
 * Paper Fig. 5: recall-distance distribution of leaf-level translation
 * blocks at the LLC (A) and L2C (B). Recall distance = accesses arriving
 * at the set between a block's eviction and its next request.
 *
 * Paper reference point: ~30% of translation blocks have a recall
 * distance within 50 — i.e. retaining them a little longer converts
 * their misses into hits, which is T-DRRIP/T-SHiP's premise.
 */

#include "bench_common.hh"
#include "sim/system.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::xalancbmk};

    // The recall histograms live in the profilers, not in RunResult, so
    // each point builds its System here instead of joining the sweep.
    return benchMain(
        argc, argv,
        "Fig. 5 — recall distance of leaf translations at LLC/L2C", [&] {
            std::vector<double> llc50, l2c50;
            for (Benchmark b : subset) {
                const std::string name = benchmarkName(b);
                SystemConfig cfg = baselineConfig();
                cfg.profileCacheRecall = true;
                std::vector<std::unique_ptr<Workload>> w;
                w.push_back(makeWorkload(b, cfg.seed));
                System sys(cfg, std::move(w));
                sys.warmup(defaultWarmup());
                sys.run(defaultInstructions());

                const Histogram &llc =
                    sys.llc().recallProfiler()->translationHist();
                const Histogram &l2c =
                    sys.l2().recallProfiler()->translationHist();
                const double fLlc = llc.fractionAtOrBelow(50) * 100;
                const double fL2c = l2c.fractionAtOrBelow(50) * 100;
                addRow("LLC recall<=50", name, fLlc, std::nan(""), "%");
                addRow("L2C recall<=50", name, fL2c, std::nan(""), "%");
                addRow("LLC recall<=10", name,
                       llc.fractionAtOrBelow(10) * 100, std::nan(""), "%");
                llc50.push_back(fLlc);
                l2c50.push_back(fL2c);
            }
            addRow("LLC recall<=50", "suite avg", mean(llc50), 30.0, "%");
            addRow("L2C recall<=50", "suite avg", mean(l2c50), 30.0, "%");
        });
}
