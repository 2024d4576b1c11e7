/**
 * @file
 * Paper Fig. 14 — the headline result: speedup over the DRRIP+SHiP
 * baseline as the enhancements stack up: T-DRRIP, +T-SHiP, +ATP,
 * +TEMPO.
 *
 * Paper reference points (suite average): T-DRRIP +0.5%, +T-SHiP +2.9%,
 * +ATP +4.8%, +TEMPO +5.1% (max +10.6%); >98% of leaf translations hit
 * on-chip with the full scheme.
 *
 * 45 simulation points: 9 baselines + 4 steps x 9 benchmarks.
 */

#include <algorithm>
#include <map>

#include "figures.hh"

using namespace tacbench;

namespace {

struct Step
{
    const char *name;
    double paperAvg;
    TranslationAwareOptions opts;
};

const Step kSteps[] = {
    {"T-DRRIP", 0.5, {true, false, false, false, false}},
    {"+T-SHiP", 2.9, {true, true, false, false, false}},
    {"+ATP", 4.8, {true, true, false, true, false}},
    {"+TEMPO", 5.1, {true, true, false, true, true}},
};

const auto stepKey = [](const Step &s, const std::string &bname) {
    return std::string("fig14/") + s.name + "/" + bname;
};

SystemConfig
stepConfig(const Step &s)
{
    SystemConfig cfg = baselineConfig();
    applyTranslationAware(cfg, s.opts);
    return cfg;
}

} // namespace

const Figure tacbench::fig14{
    "fig14", "Fig. 14 — speedup with the paper's enhancements",
    [](SweepRunner &sweep) {
        for (Benchmark b : kAllBenchmarks)
            registerPoint(sweep, "base/" + benchmarkName(b), baselineConfig(),
                          b);
        for (const Step &s : kSteps)
            for (Benchmark b : kAllBenchmarks)
                registerPoint(sweep, stepKey(s, benchmarkName(b)),
                              stepConfig(s), b);
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::map<std::string, std::vector<double>> series;
        double onChip = 0;
        for (const Step &s : kSteps) {
            for (Benchmark b : kAllBenchmarks) {
                const std::string bname = benchmarkName(b);
                const RunResult &r = sweep.result(stepKey(s, bname));
                const double sp = speedup(sweep.result("base/" + bname), r);
                addRow(rows, s.name, bname, (sp - 1) * 100, std::nan(""), "%");
                series[s.name].push_back(sp);
                if (s.opts.tempo)
                    onChip += r.leafOnChipHitRate;
            }
        }

        for (const Step &s : kSteps) {
            const auto &v = series[s.name];
            addRow(rows, s.name, "geomean", (geomean(v) - 1) * 100, s.paperAvg,
                   "%");
            double mx = 0;
            for (double x : v)
                mx = std::max(mx, (x - 1) * 100);
            if (std::string(s.name) == "+TEMPO")
                addRow(rows, s.name, "max", mx, 10.6, "%");
        }
        addRow(rows, "leaf on-chip hit rate", "suite avg", onChip / 9.0 * 100,
               98.0, "%");
        return rows;
    }};
