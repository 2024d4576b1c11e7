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

#include "figures.hh"

using namespace tacbench;

namespace {

struct Variant
{
    const char *name;
    PolicyKind kind;
    bool newSig;
    bool tr0;
};

const Variant kVariants[] = {
    {"SHiP", PolicyKind::SHiP, false, false},
    {"SHiP+NewSign", PolicyKind::SHiP, true, false},
    {"T-SHiP", PolicyKind::SHiP, true, true},
    {"Hawkeye", PolicyKind::Hawkeye, false, false},
    {"Hawkeye+NewSign", PolicyKind::Hawkeye, true, false},
    {"T-Hawkeye", PolicyKind::Hawkeye, true, true},
};

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::radii, Benchmark::tc};

const auto key = [](const Variant &v, Benchmark b) {
    return std::string("fig12/") + v.name + "/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::fig12{
    "fig12", "Fig. 12 — LLC translation MPKI: signatures and T-insertion",
    [](SweepRunner &sweep) {
        for (const Variant &v : kVariants) {
            SystemConfig cfg = baselineConfig();
            cfg.llcPolicy = v.kind;
            cfg.llcOpts.newSignatures = v.newSig;
            cfg.llcOpts.translationRrpv0 = v.tr0;
            for (Benchmark b : kSubset)
                registerPoint(sweep, key(v, b), cfg, b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::string, std::vector<double>> series;
        for (const Variant &v : kVariants) {
            for (Benchmark b : kSubset) {
                const RunResult &r = sweep.result(key(v, b));
                addRow(rows, v.name, benchmarkName(b), r.llcPtl1Mpki,
                       std::nan(""), "MPKI");
                series[v.name].push_back(r.llcPtl1Mpki);
            }
        }
        for (auto &kv : series)
            addRow(rows, kv.first, "suite avg", mean(kv.second), std::nan(""),
                   "MPKI (paper: SHiP > NewSign > T-SHiP)");
        return rows;
    }};
