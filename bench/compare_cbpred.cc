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

    SystemConfig cb = baselineConfig();
    cb.llcDeadBlock = true;
    for (Benchmark b : subset) {
        const std::string name = benchmarkName(b);
        registerPoint("base/" + name, baselineConfig(), b);
        registerPoint("cbpred/" + name, cb, b);
        registerPoint("prop/" + name, proposedConfig(), b);
    }

    return benchMain(argc, argv,
                     "§V-B — comparison with CbPred/DpPred dead-block "
                     "management",
                     [&] {
        std::vector<double> cbGain, propGain, propOverCb;
        for (Benchmark b : subset) {
            const std::string name = benchmarkName(b);
            const RunResult &base = sweep().result("base/" + name);
            const double sCb = speedup(base, sweep().result("cbpred/" + name));
            const double sP = speedup(base, sweep().result("prop/" + name));
            addRow("CbPred(SHiP)", name, (sCb - 1) * 100, std::nan(""),
                   "%");
            addRow("proposal", name, (sP - 1) * 100, std::nan(""), "%");
            cbGain.push_back(sCb);
            propGain.push_back(sP);
            propOverCb.push_back(sP / sCb);
        }
        addRow("CbPred(SHiP)", "geomean", (geomean(cbGain) - 1) * 100,
               std::nan(""), "%");
        addRow("proposal", "geomean", (geomean(propGain) - 1) * 100,
               std::nan(""), "%");
        addRow("proposal vs CbPred", "geomean",
               (geomean(propOverCb) - 1) * 100, 3.1, "%");
    });
}
