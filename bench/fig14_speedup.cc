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
 * All 45 simulation points (9 baselines + 4 steps x 9 benchmarks) are
 * registered up front and executed by the parallel sweep runner; the
 * table is then built from their results.
 */

#include <algorithm>
#include <map>

#include "bench_common.hh"

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

std::string
stepKey(const Step &s, const std::string &bname)
{
    return std::string("fig14/") + s.name + "/" + bname;
}

SystemConfig
stepConfig(const Step &s)
{
    SystemConfig cfg = baselineConfig();
    applyTranslationAware(cfg, s.opts);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    for (Benchmark b : kAllBenchmarks)
        registerPoint("base/" + benchmarkName(b), baselineConfig(), b);
    for (const Step &s : kSteps)
        for (Benchmark b : kAllBenchmarks)
            registerPoint(stepKey(s, benchmarkName(b)), stepConfig(s), b);

    // Optional VM axes: does the full scheme still pay off when huge
    // pages shrink the walk burden, or when nesting multiplies it?
    auto vmKey = [](const VmAxis &a, const char *policy, Benchmark b) {
        return "vm/" + std::string(a.name) + "/" + policy + "/" +
            benchmarkName(b);
    };
    if (vmAxesRequested()) {
        for (const VmAxis &a : vmAxes()) {
            for (Benchmark b : kAllBenchmarks) {
                registerPoint(vmKey(a, "base", b),
                              withVmAxis(baselineConfig(), a), b);
                registerPoint(vmKey(a, "prop", b),
                              withVmAxis(proposedConfig(), a), b);
            }
        }
    }

    return benchMain(argc, argv,
                     "Fig. 14 — speedup with the paper's enhancements", [&] {
        std::map<std::string, std::vector<double>> series;
        double onChip = 0;
        for (const Step &s : kSteps) {
            for (Benchmark b : kAllBenchmarks) {
                const std::string bname = benchmarkName(b);
                const RunResult &r = sweep().result(stepKey(s, bname));
                const double sp =
                    speedup(sweep().result("base/" + bname), r);
                addRow(s.name, bname, (sp - 1) * 100, std::nan(""), "%");
                series[s.name].push_back(sp);
                if (s.opts.tempo)
                    onChip += r.leafOnChipHitRate;
            }
        }

        if (vmAxesRequested()) {
            for (const VmAxis &a : vmAxes()) {
                std::vector<double> sp;
                double mpki = 0;
                for (Benchmark b : kAllBenchmarks) {
                    const RunResult &base =
                        sweep().result(vmKey(a, "base", b));
                    sp.push_back(
                        speedup(base, sweep().result(vmKey(a, "prop", b))));
                    mpki += base.stlbMpki;
                }
                addRow(std::string("vm:") + a.name, "geomean",
                       (geomean(sp) - 1) * 100, std::nan(""), "%");
                addRow(std::string("vm:") + a.name, "base STLB MPKI",
                       mpki / 9.0, std::nan(""), "");
            }
        }

        for (const Step &s : kSteps) {
            const auto &v = series[s.name];
            addRow(s.name, "geomean", (geomean(v) - 1) * 100, s.paperAvg,
                   "%");
            double mx = 0;
            for (double x : v)
                mx = std::max(mx, (x - 1) * 100);
            if (std::string(s.name) == "+TEMPO")
                addRow(s.name, "max", mx, 10.6, "%");
        }
        addRow("leaf on-chip hit rate", "suite avg", onChip / 9.0 * 100,
               98.0, "%");
    });
}
