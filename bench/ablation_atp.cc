/**
 * @file
 * Design-choice ablation: where should ATP live? The paper places the
 * trigger at both L2C and LLC and inserts the prefetched replay line
 * with eviction priority (RRPV=3). This figure isolates each choice:
 * trigger level (L2C only / LLC only / both) and the TEMPO backstop,
 * on the most translation-sensitive benchmarks.
 */

#include <map>

#include "figures.hh"

using namespace tacbench;

namespace {

struct Variant
{
    const char *name;
    bool atpL2, atpLlc, tempo;
};

const Variant kVariants[] = {
    {"T-policies only", false, false, false},
    {"+ATP@L2C", true, false, false},
    {"+ATP@LLC", false, true, false},
    {"+ATP@both", true, true, false},
    {"+TEMPO only", false, false, true},
    {"+ATP@both+TEMPO", true, true, true},
};

const Benchmark kSubset[] = {Benchmark::mcf, Benchmark::canneal,
                             Benchmark::pr, Benchmark::tc};

const auto key = [](const Variant &v, Benchmark b) {
    return std::string("ablation_atp/") + v.name + "/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::ablationAtp{
    "ablation-atp", "Ablation — ATP trigger level and TEMPO backstop",
    [](SweepRunner &sweep) {
        for (const Variant &v : kVariants) {
            SystemConfig cfg = baselineConfig();
            applyTranslationAware(cfg, {true, true, false, false, false});
            cfg.atpL2 = v.atpL2;
            cfg.atpLlc = v.atpLlc;
            cfg.dram.tempo = v.tempo;
            for (Benchmark b : kSubset) {
                registerPoint(sweep, "base/" + benchmarkName(b),
                              baselineConfig(), b);
                registerPoint(sweep, key(v, b), cfg, b);
            }
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::string, std::vector<double>> series;
        for (const Variant &v : kVariants) {
            for (Benchmark b : kSubset) {
                const std::string bname = benchmarkName(b);
                const double sp = speedup(sweep.result("base/" + bname),
                                          sweep.result(key(v, b)));
                addRow(rows, v.name, bname, (sp - 1) * 100, std::nan(""), "%");
                series[v.name].push_back(sp);
            }
        }
        for (const Variant &v : kVariants)
            addRow(rows, v.name, "geomean",
                   (geomean(series[v.name]) - 1) * 100, std::nan(""), "%");
        return rows;
    }};
