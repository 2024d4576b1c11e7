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

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::bf};

    auto key = [](Benchmark b) {
        return std::string("fig07/") + benchmarkName(b);
    };
    SystemConfig cfg = baselineConfig();
    cfg.profileCacheRecall = true;
    for (Benchmark b : subset)
        registerPoint(key(b), cfg, b);

    return benchMain(argc, argv,
                     "Fig. 7 — recall distance of replays at LLC/L2C", [&] {
        std::vector<double> over50;
        for (Benchmark b : subset) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep().result(key(b));
            const Histogram &llc = r.recall.at("llc.recall.replay");
            const Histogram &l2c = r.recall.at("l2c.recall.replay");
            const double fLlc = (1 - llc.fractionAtOrBelow(50)) * 100;
            const double fL2c = (1 - l2c.fractionAtOrBelow(50)) * 100;
            addRow("LLC recall>50", name, fLlc, std::nan(""), "%");
            addRow("L2C recall>50", name, fL2c, std::nan(""), "%");
            over50.push_back(fLlc);
        }
        addRow("LLC recall>50", "suite avg", mean(over50), 60.0, "%");
    });
}
