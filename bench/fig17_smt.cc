/**
 * @file
 * Paper Fig. 17: 2-way SMT — two threads share the whole memory
 * hierarchy; the metric is harmonic speedup vs solo runs, compared
 * between the baseline and the full proposal.
 *
 * The mix table is generated combinatorially: all 45 unordered pairs
 * (including self-pairs) of the 9-benchmark suite, on the baseline
 * machine with threadsPerCore = 2. The pairs the paper reports carry
 * its reference numbers.
 *
 * Paper reference points: suite average +6.3%, max +12.6% (pr-cc);
 * radii-bf +6.5%, tc-pr +11.1%, canneal-xalancbmk +3.5%,
 * xalancbmk-xalancbmk +0.5%.
 */

#include <map>
#include <utility>

#include "figures.hh"

using namespace tacbench;

namespace {

using B = Benchmark;

/** The paper's published per-pair gains (percent), keyed t0-t1. */
double
paperGain(B t0, B t1)
{
    static const std::map<std::pair<B, B>, double> known = {
        {{B::xalancbmk, B::xalancbmk}, 0.5},
        {{B::canneal, B::xalancbmk}, 3.5},
        {{B::radii, B::bf}, 6.5},
        {{B::tc, B::pr}, 11.1},
        {{B::pr, B::cc}, 12.6},
    };
    // Pairs are generated in suite order; the paper lists some of them
    // the other way round, so look up both orientations.
    auto it = known.find({t0, t1});
    if (it == known.end())
        it = known.find({t1, t0});
    return it == known.end() ? std::nan("") : it->second;
}

const auto pairName = [](B t0, B t1) {
    return benchmarkName(t0) + "-" + benchmarkName(t1);
};

} // namespace

const Figure tacbench::fig17{
    "fig17", "Fig. 17 — 2-way SMT speedup, all 45 pairs",
    [](SweepRunner &sweep) {
        // 9 solos (baseline, for the harmonic denominator) plus both
        // policies for each of the 45 unordered pairs: 99 points.
        SystemConfig smtBase = baselineConfig();
        smtBase.threadsPerCore = 2;
        const SystemConfig smtEnh = proposedConfig(smtBase);

        for (B b : kAllBenchmarks)
            registerPoint(sweep, "base/" + benchmarkName(b), baselineConfig(),
                          b);
        for (std::size_t i = 0; i < kAllBenchmarks.size(); ++i) {
            for (std::size_t j = i; j < kAllBenchmarks.size(); ++j) {
                const B t0 = kAllBenchmarks[i], t1 = kAllBenchmarks[j];
                registerMixPoint(sweep, "smt/base/" + pairName(t0, t1),
                                 smtBase, {t0, t1});
                registerMixPoint(sweep, "smt/enh/" + pairName(t0, t1), smtEnh,
                                 {t0, t1});
            }
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::vector<double> gains;
        for (std::size_t i = 0; i < kAllBenchmarks.size(); ++i) {
            for (std::size_t j = i; j < kAllBenchmarks.size(); ++j) {
                const B t0 = kAllBenchmarks[i], t1 = kAllBenchmarks[j];
                const std::string name = pairName(t0, t1);
                const std::vector<double> soloIpc = {
                    sweep.result("base/" + benchmarkName(t0)).ipc,
                    sweep.result("base/" + benchmarkName(t1)).ipc};
                const double hBase =
                    harmonicSpeedup(soloIpc, sweep.result("smt/base/" + name));
                const double hEnh =
                    harmonicSpeedup(soloIpc, sweep.result("smt/enh/" + name));
                const double gain = hBase > 0 ? (hEnh / hBase - 1) * 100 : 0.0;
                addRow(rows, "SMT harmonic-speedup gain", name, gain,
                       paperGain(t0, t1), "%");
                gains.push_back(gain);
            }
        }
        addRow(rows, "SMT harmonic-speedup gain", "pair avg", mean(gains), 6.3,
               "%");
        return rows;
    }};
