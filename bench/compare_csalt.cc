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

    for (Benchmark b : subset) {
        const std::string name = benchmarkName(b);
        registerPoint("base/" + name, baselineConfig(), b);
        registerPoint("csalt/" + name, cs, b);
        registerPoint("lru/" + name, lru, b);
        registerPoint("lru-csalt/" + name, lruCs, b);
        registerPoint("prop/" + name, proposedConfig(), b);
    }

    return benchMain(argc, argv,
                     "§V-B — comparison with CSALT partitioning", [&] {
        std::vector<double> csaltOverStrong, csaltOverLru, propGain;
        for (Benchmark b : subset) {
            const std::string name = benchmarkName(b);
            const RunResult &base = sweep().result("base/" + name);
            const double sStrong =
                speedup(base, sweep().result("csalt/" + name));
            const double sLru = speedup(sweep().result("lru/" + name),
                                        sweep().result("lru-csalt/" + name));
            const double sProp =
                speedup(base, sweep().result("prop/" + name));
            addRow("CSALT over strong base", name, (sStrong - 1) * 100,
                   std::nan(""), "%");
            addRow("CSALT over LRU base", name, (sLru - 1) * 100,
                   std::nan(""), "%");
            addRow("proposal over strong base", name, (sProp - 1) * 100,
                   std::nan(""), "%");
            csaltOverStrong.push_back(sStrong);
            csaltOverLru.push_back(sLru);
            propGain.push_back(sProp);
        }
        addRow("CSALT over strong base", "geomean",
               (geomean(csaltOverStrong) - 1) * 100, 1.0, "%");
        addRow("CSALT over LRU base", "geomean",
               (geomean(csaltOverLru) - 1) * 100, std::nan(""),
               "% (paper: larger than strong)");
        addRow("proposal over strong base", "geomean",
               (geomean(propGain) - 1) * 100, 5.1, "%");
    });
}
