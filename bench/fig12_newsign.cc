/**
 * @file
 * Paper Fig. 12: leaf-level translation MPKI at the LLC for baseline
 * SHiP, SHiP with the flag-extended signatures only (NewSign), and full
 * T-SHiP (NewSign + RRPV=0 insertion for leaf translations); plus the
 * Hawkeye equivalents.
 *
 * Paper reference point: each step lowers translation MPKI, with T-SHiP
 * pushing the on-chip translation hit rate to ~99%.
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    struct Variant
    {
        const char *name;
        PolicyKind kind;
        bool newSig;
        bool tr0;
    };
    const Variant variants[] = {
        {"SHiP", PolicyKind::SHiP, false, false},
        {"SHiP+NewSign", PolicyKind::SHiP, true, false},
        {"T-SHiP", PolicyKind::SHiP, true, true},
        {"Hawkeye", PolicyKind::Hawkeye, false, false},
        {"Hawkeye+NewSign", PolicyKind::Hawkeye, true, false},
        {"T-Hawkeye", PolicyKind::Hawkeye, true, true},
    };

    const Benchmark subset[] = {Benchmark::canneal, Benchmark::mcf,
                                Benchmark::cc, Benchmark::pr,
                                Benchmark::radii, Benchmark::tc};

    static std::map<std::string, std::vector<double>> series;

    for (const Variant &v : variants) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            Variant vv = v;
            const std::string key =
                std::string("fig12/") + v.name + "/" + bname;
            registerCase(key,
                         [key, vv, b, bname] {
                             SystemConfig cfg = baselineConfig();
                             cfg.llcPolicy = vv.kind;
                             cfg.llcOpts.newSignatures = vv.newSig;
                             cfg.llcOpts.translationRrpv0 = vv.tr0;
                             const RunResult &r = cachedRun(key, cfg, b);
                             addRow(vv.name, bname, r.llcPtl1Mpki,
                                    std::nan(""), "MPKI");
                             series[vv.name].push_back(r.llcPtl1Mpki);
                         });
        }
    }

    registerCase("fig12/summary", [] {
        auto avg = [](const std::vector<double> &v) {
            double s = 0;
            for (double x : v)
                s += x;
            return v.empty() ? 0.0 : s / double(v.size());
        };
        for (auto &kv : series)
            addRow(kv.first, "suite avg", avg(kv.second), std::nan(""),
                   "MPKI (paper: SHiP > NewSign > T-SHiP)");
    });

    return benchMain(
        argc, argv,
        "Fig. 12 — LLC translation MPKI: signatures and T-insertion");
}
