/**
 * @file
 * Paper §V-B: comparison with CbPred/DpPred-style dead-block management
 * (Mazumdar et al., HPCA'21). Dead-block bypass frees LLC space but
 * does not shorten the stalls of the replay loads themselves, so the
 * paper's scheme beats it.
 *
 * Paper reference point: the proposal improves average performance by
 * a further ~3.1% over CbPred.
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::radii, Benchmark::bf};

    std::vector<double> cbGain, propGain, propOverCb;

    for (Benchmark b : subset) {
        const std::string name = benchmarkName(b);
        registerCase("cbpred/" + name,
                     [b, name, &cbGain, &propGain, &propOverCb] {
                         const RunResult &base =
                             cachedRun("base/" + name, baselineConfig(),
                                       b);

                         SystemConfig cb = baselineConfig();
                         cb.llcDeadBlock = true;
                         const RunResult &rcb =
                             cachedRun("cbpred/" + name, cb, b);

                         const RunResult &rp = cachedRun(
                             "prop/" + name, proposedConfig(), b);

                         const double sCb = speedup(base, rcb);
                         const double sP = speedup(base, rp);
                         addRow("CbPred(SHiP)", name, (sCb - 1) * 100,
                                std::nan(""), "%");
                         addRow("proposal", name, (sP - 1) * 100,
                                std::nan(""), "%");
                         cbGain.push_back(sCb);
                         propGain.push_back(sP);
                         propOverCb.push_back(sP / sCb);
                     });
    }

    registerCase("cbpred/summary", [&cbGain, &propGain, &propOverCb] {
        addRow("CbPred(SHiP)", "geomean", (geomean(cbGain) - 1) * 100,
               std::nan(""), "%");
        addRow("proposal", "geomean", (geomean(propGain) - 1) * 100,
               std::nan(""), "%");
        addRow("proposal vs CbPred", "geomean",
               (geomean(propOverCb) - 1) * 100, 3.1, "%");
    });

    return benchMain(argc, argv,
                     "§V-B — comparison with CbPred/DpPred dead-block "
                     "management");
}
