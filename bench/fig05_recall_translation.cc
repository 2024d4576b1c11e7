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

#include "figures.hh"

using namespace tacbench;

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::xalancbmk};

const auto key = [](Benchmark b) {
    return std::string("fig05/") + benchmarkName(b);
};

const Figure tacbench::fig05{
    "fig05", "Fig. 5 — recall distance of leaf translations at LLC/L2C",
    [](SweepRunner &sweep) {
        SystemConfig cfg = baselineConfig();
        cfg.profileCacheRecall = true;
        for (Benchmark b : kSubset)
            registerPoint(sweep, key(b), cfg, b);
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> llc50, l2c50;
        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            const RunResult &r = sweep.result(key(b));
            const Histogram &llc = r.recall.at("llc.recall.translation");
            const Histogram &l2c = r.recall.at("l2c.recall.translation");
            const double fLlc = llc.fractionAtOrBelow(50) * 100;
            const double fL2c = l2c.fractionAtOrBelow(50) * 100;
            addRow(rows, "LLC recall<=50", name, fLlc, std::nan(""), "%");
            addRow(rows, "L2C recall<=50", name, fL2c, std::nan(""), "%");
            addRow(rows, "LLC recall<=10", name,
                   llc.fractionAtOrBelow(10) * 100, std::nan(""), "%");
            llc50.push_back(fLlc);
            l2c50.push_back(fL2c);
        }
        addRow(rows, "LLC recall<=50", "suite avg", mean(llc50), 30.0, "%");
        addRow(rows, "L2C recall<=50", "suite avg", mean(l2c50), 30.0, "%");
        return rows;
    }};
