/**
 * @file
 * Paper §V-B: comparison with CSALT-style dynamic translation/data
 * cache partitioning (Marathe et al., MICRO'17).
 *
 * Paper reference points: CSALT partitioning adds only ~1% on top of
 * the enhanced SHiP/DRRIP baseline; over a weak LRU baseline its gains
 * are larger (corroborating the CSALT paper).
 */

#include "figures.hh"

using namespace tacbench;

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::xalancbmk};

const Figure tacbench::csalt{
    "csalt", "§V-B — comparison with CSALT partitioning",
    [](SweepRunner &sweep) {
        // CSALT on the strong (DRRIP+SHiP) baseline.
        SystemConfig cs = baselineConfig();
        cs.llcCsalt = true;
        // CSALT over a weak LRU baseline (the CSALT paper's own setting,
        // corroborated by §V-B).
        SystemConfig lru = baselineConfig();
        lru.l2Policy = PolicyKind::LRU;
        lru.llcPolicy = PolicyKind::LRU;
        SystemConfig lruCs = lru;
        lruCs.llcCsalt = true;

        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            registerPoint(sweep, "base/" + name, baselineConfig(), b);
            registerPoint(sweep, "csalt/" + name, cs, b);
            registerPoint(sweep, "lru/" + name, lru, b);
            registerPoint(sweep, "lru-csalt/" + name, lruCs, b);
            registerPoint(sweep, "prop/" + name, proposedConfig(), b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> csaltOverStrong, csaltOverLru, propGain;
        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            const RunResult &base = sweep.result("base/" + name);
            const double sStrong = speedup(base, sweep.result("csalt/" + name));
            const double sLru = speedup(sweep.result("lru/" + name),
                                        sweep.result("lru-csalt/" + name));
            const double sProp = speedup(base, sweep.result("prop/" + name));
            addRow(rows, "CSALT over strong base", name, (sStrong - 1) * 100,
                   std::nan(""), "%");
            addRow(rows, "CSALT over LRU base", name, (sLru - 1) * 100,
                   std::nan(""), "%");
            addRow(rows, "proposal over strong base", name, (sProp - 1) * 100,
                   std::nan(""), "%");
            csaltOverStrong.push_back(sStrong);
            csaltOverLru.push_back(sLru);
            propGain.push_back(sProp);
        }
        addRow(rows, "CSALT over strong base", "geomean",
               (geomean(csaltOverStrong) - 1) * 100, 1.0, "%");
        addRow(rows, "CSALT over LRU base", "geomean",
               (geomean(csaltOverLru) - 1) * 100, std::nan(""),
               "% (paper: larger than strong)");
        addRow(rows, "proposal over strong base", "geomean",
               (geomean(propGain) - 1) * 100, 5.1, "%");
        return rows;
    }};
