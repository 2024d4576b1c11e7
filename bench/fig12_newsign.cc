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

#include <map>

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

    auto key = [](const Variant &v, Benchmark b) {
        return std::string("fig12/") + v.name + "/" + benchmarkName(b);
    };
    for (const Variant &v : variants) {
        SystemConfig cfg = baselineConfig();
        cfg.llcPolicy = v.kind;
        cfg.llcOpts.newSignatures = v.newSig;
        cfg.llcOpts.translationRrpv0 = v.tr0;
        for (Benchmark b : subset)
            registerPoint(key(v, b), cfg, b);
    }

    return benchMain(
        argc, argv,
        "Fig. 12 — LLC translation MPKI: signatures and T-insertion", [&] {
            std::map<std::string, std::vector<double>> series;
            for (const Variant &v : variants) {
                for (Benchmark b : subset) {
                    const RunResult &r = sweep().result(key(v, b));
                    addRow(v.name, benchmarkName(b), r.llcPtl1Mpki,
                           std::nan(""), "MPKI");
                    series[v.name].push_back(r.llcPtl1Mpki);
                }
            }
            for (auto &kv : series)
                addRow(kv.first, "suite avg", mean(kv.second),
                       std::nan(""),
                       "MPKI (paper: SHiP > NewSign > T-SHiP)");
        });
}
