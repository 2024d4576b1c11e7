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

#include "figures.hh"

using namespace tacbench;

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::radii, Benchmark::bf};

const Figure tacbench::cbpred{
    "cbpred", "§V-B — comparison with CbPred/DpPred dead-block management",
    [](SweepRunner &sweep) {
        SystemConfig cb = baselineConfig();
        cb.llcDeadBlock = true;
        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            registerPoint(sweep, "base/" + name, baselineConfig(), b);
            registerPoint(sweep, "cbpred/" + name, cb, b);
            registerPoint(sweep, "prop/" + name, proposedConfig(), b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> cbGain, propGain, propOverCb;
        for (Benchmark b : kSubset) {
            const std::string name = benchmarkName(b);
            const RunResult &base = sweep.result("base/" + name);
            const double sCb = speedup(base, sweep.result("cbpred/" + name));
            const double sP = speedup(base, sweep.result("prop/" + name));
            addRow(rows, "CbPred(SHiP)", name, (sCb - 1) * 100, std::nan(""),
                   "%");
            addRow(rows, "proposal", name, (sP - 1) * 100, std::nan(""), "%");
            cbGain.push_back(sCb);
            propGain.push_back(sP);
            propOverCb.push_back(sP / sCb);
        }
        addRow(rows, "CbPred(SHiP)", "geomean", (geomean(cbGain) - 1) * 100,
               std::nan(""), "%");
        addRow(rows, "proposal", "geomean", (geomean(propGain) - 1) * 100,
               std::nan(""), "%");
        addRow(rows, "proposal vs CbPred", "geomean",
               (geomean(propOverCb) - 1) * 100, 3.1, "%");
        return rows;
    }};
