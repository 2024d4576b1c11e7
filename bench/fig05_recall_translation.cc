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

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::xalancbmk};

    auto key = [](Benchmark b) {
        return std::string("fig05/") + benchmarkName(b);
    };
    SystemConfig cfg = baselineConfig();
    cfg.profileCacheRecall = true;
    for (Benchmark b : subset)
        registerPoint(key(b), cfg, b);

    return benchMain(
        argc, argv,
        "Fig. 5 — recall distance of leaf translations at LLC/L2C", [&] {
            std::vector<double> llc50, l2c50;
            for (Benchmark b : subset) {
                const std::string name = benchmarkName(b);
                const RunResult &r = sweep().result(key(b));
                const Histogram &llc = r.recall.at("llc.recall.translation");
                const Histogram &l2c = r.recall.at("l2c.recall.translation");
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
