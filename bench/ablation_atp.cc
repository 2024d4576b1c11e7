/**
 * @file
 * Design-choice ablation: where should ATP live? The paper places the
 * trigger at both L2C and LLC and inserts the prefetched replay line
 * with eviction priority (RRPV=3). This bench isolates each choice:
 * trigger level (L2C only / LLC only / both) and the TEMPO backstop,
 * on the most translation-sensitive benchmarks.
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
        bool atpL2, atpLlc, tempo;
    };
    const Variant variants[] = {
        {"T-policies only", false, false, false},
        {"+ATP@L2C", true, false, false},
        {"+ATP@LLC", false, true, false},
        {"+ATP@both", true, true, false},
        {"+TEMPO only", false, false, true},
        {"+ATP@both+TEMPO", true, true, true},
    };

    const Benchmark subset[] = {Benchmark::mcf, Benchmark::canneal,
                                Benchmark::pr, Benchmark::tc};

    auto key = [](const Variant &v, Benchmark b) {
        return std::string("ablation_atp/") + v.name + "/" +
            benchmarkName(b);
    };
    for (const Variant &v : variants) {
        SystemConfig cfg = baselineConfig();
        applyTranslationAware(cfg, {true, true, false, false, false});
        cfg.atpL2 = v.atpL2;
        cfg.atpLlc = v.atpLlc;
        cfg.dram.tempo = v.tempo;
        for (Benchmark b : subset) {
            registerPoint("base/" + benchmarkName(b), baselineConfig(), b);
            registerPoint(key(v, b), cfg, b);
        }
    }

    return benchMain(argc, argv,
                     "Ablation — ATP trigger level and TEMPO backstop", [&] {
        std::map<std::string, std::vector<double>> series;
        for (const Variant &v : variants) {
            for (Benchmark b : subset) {
                const std::string bname = benchmarkName(b);
                const double sp = speedup(sweep().result("base/" + bname),
                                          sweep().result(key(v, b)));
                addRow(v.name, bname, (sp - 1) * 100, std::nan(""), "%");
                series[v.name].push_back(sp);
            }
        }
        for (const Variant &v : variants)
            addRow(v.name, "geomean", (geomean(series[v.name]) - 1) * 100,
                   std::nan(""), "%");
    });
}
