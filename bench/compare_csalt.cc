/**
 * @file
 * Paper §V-B: comparison with CSALT-style dynamic translation/data
 * cache partitioning (Marathe et al., MICRO'17).
 *
 * Paper reference points: CSALT partitioning adds only ~1% on top of
 * the enhanced SHiP/DRRIP baseline; over a weak LRU baseline its gains
 * are larger (corroborating the CSALT paper).
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::xalancbmk};

    std::vector<double> csaltOverStrong, csaltOverLru, propGain;

    for (Benchmark b : subset) {
        const std::string name = benchmarkName(b);
        registerCase(
            "csalt/" + name,
            [b, name, &csaltOverStrong, &csaltOverLru, &propGain] {
                const RunResult &base =
                    cachedRun("base/" + name, baselineConfig(), b);

                // CSALT on the strong (DRRIP+SHiP) baseline.
                SystemConfig cs = baselineConfig();
                cs.llcCsalt = true;
                const RunResult &rcs = cachedRun("csalt/" + name, cs, b);

                // CSALT over a weak LRU baseline (the CSALT paper's own
                // setting, corroborated by §V-B).
                SystemConfig lru = baselineConfig();
                lru.l2Policy = PolicyKind::LRU;
                lru.llcPolicy = PolicyKind::LRU;
                const RunResult &rlru = cachedRun("lru/" + name, lru, b);
                SystemConfig lruCs = lru;
                lruCs.llcCsalt = true;
                const RunResult &rlruCs =
                    cachedRun("lru-csalt/" + name, lruCs, b);

                const RunResult &rp =
                    cachedRun("prop/" + name, proposedConfig(), b);

                const double sStrong = speedup(base, rcs);
                const double sLru = speedup(rlru, rlruCs);
                const double sProp = speedup(base, rp);
                addRow("CSALT over strong base", name,
                       (sStrong - 1) * 100, std::nan(""), "%");
                addRow("CSALT over LRU base", name, (sLru - 1) * 100,
                       std::nan(""), "%");
                addRow("proposal over strong base", name,
                       (sProp - 1) * 100, std::nan(""), "%");
                csaltOverStrong.push_back(sStrong);
                csaltOverLru.push_back(sLru);
                propGain.push_back(sProp);
            });
    }

    registerCase("csalt/summary",
                 [&csaltOverStrong, &csaltOverLru, &propGain] {
                     addRow("CSALT over strong base", "geomean",
                            (geomean(csaltOverStrong) - 1) * 100, 1.0,
                            "%");
                     addRow("CSALT over LRU base", "geomean",
                            (geomean(csaltOverLru) - 1) * 100,
                            std::nan(""), "% (paper: larger than strong)");
                     addRow("proposal over strong base", "geomean",
                            (geomean(propGain) - 1) * 100, 5.1, "%");
                 });

    return benchMain(argc, argv,
                     "§V-B — comparison with CSALT partitioning");
}
