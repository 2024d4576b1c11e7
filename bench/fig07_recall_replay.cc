/**
 * @file
 * Paper Fig. 7: recall-distance distribution of replay-load blocks at
 * the LLC (A) and L2C (B).
 *
 * Paper reference point: more than 60% of replay blocks have a recall
 * distance beyond 50 unique set accesses — retention cannot save them,
 * which is why the paper prefetches them (ATP) instead.
 */

#include "figures.hh"

using namespace tacbench;

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr, Benchmark::bf};

const auto key = [](Benchmark b) {
    return std::string("fig07/") + benchmarkName(b);
};

const Figure tacbench::fig07{
    "fig07", "Fig. 7 — recall distance of replays at LLC/L2C",
    [](SweepRunner &sweep) {
        SystemConfig cfg = baselineConfig();
        cfg.profileCacheRecall = true;
        for (Benchmark b : kSubset)
            registerPoint(sweep, key(b), cfg, b);
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> over50;
        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep.result(key(b));
            const Histogram &llc = r.recall.at("llc.recall.replay");
            const Histogram &l2c = r.recall.at("l2c.recall.replay");
            const double fLlc = (1 - llc.fractionAtOrBelow(50)) * 100;
            const double fL2c = (1 - l2c.fractionAtOrBelow(50)) * 100;
            addRow(rows, "LLC recall>50", name, fLlc, std::nan(""), "%");
            addRow(rows, "L2C recall>50", name, fL2c, std::nan(""), "%");
            over50.push_back(fLlc);
        }
        addRow(rows, "LLC recall>50", "suite avg", mean(over50), 60.0, "%");
        return rows;
    }};
