/**
 * @file
 * The figure table behind tacsim-paper (DESIGN.md §4). Each table or
 * figure of the paper's evaluation is one Figure: a name (what
 * `tacsim-paper <name>` selects), a title, a function that registers the
 * figure's simulation points on a SweepRunner (registerPoint /
 * registerMixPoint), and a function that reads their results
 * (sweep.result(key)) and returns the rows of a paper-vs-measured table.
 */

#ifndef TACSIM_BENCH_FIGURES_HH
#define TACSIM_BENCH_FIGURES_HH

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace tacbench {

using namespace tacsim;

/** The rows of one paper-vs-measured table. */
using Rows = std::vector<ReportRow>;

/** One table or figure of the paper's evaluation. */
struct Figure
{
    const char *name;  ///< command-line name, e.g. "fig14"
    const char *title; ///< table heading
    void (*registerPoints)(SweepRunner &sweep);
    /** Reads the registered points' results once the sweep has run. */
    Rows (*buildRows)(const SweepRunner &sweep);
};

extern const Figure fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08,
    fig10, fig12, table2, fig14, fig15, fig16, vmAxes, fig17, fig18, fig19,
    fig20, fig21, mc8, mc16, mc32, mc64, cbpred, csalt, ablationAtp,
    ablationWalker;

/** Every figure, in DESIGN.md §4's order. */
inline const Figure *const kFigures[] = {
    &fig01, &fig02, &fig03, &fig04, &fig05, &fig06, &fig07, &fig08,
    &fig10, &fig12, &table2, &fig14, &fig15, &fig16, &vmAxes, &fig17,
    &fig18, &fig19, &fig20, &fig21, &mc8, &mc16, &mc32, &mc64, &cbpred,
    &csalt, &ablationAtp, &ablationWalker,
};

/** The figure called @p name, or nullptr. */
inline const Figure *
findFigure(std::string_view name)
{
    for (const Figure *f : kFigures)
        if (name == f->name)
            return f;
    return nullptr;
}

inline void
addRow(Rows &rows, std::string series, std::string label, double measured,
       double paper = std::nan(""), std::string unit = "")
{
    rows.push_back({std::move(series), std::move(label), measured, paper,
                    std::move(unit)});
}

/** Baseline Table-I system: DRRIP@L2, SHiP@LLC, no prefetchers. */
inline SystemConfig
baselineConfig()
{
    return SystemConfig{};
}

/** The paper's full proposal (T-DRRIP, T-SHiP, ATP, TEMPO) on top of
 *  @p cfg. */
inline SystemConfig
proposedConfig(SystemConfig cfg = baselineConfig())
{
    TranslationAwareOptions o;
    o.tempo = true;
    applyTranslationAware(cfg, o);
    return cfg;
}

/** Register one simulation point at the default budgets (every thread
 *  of @p cfg runs @p b). */
inline void
registerPoint(SweepRunner &sweep, const std::string &key,
              const SystemConfig &cfg, Benchmark b)
{
    sweep.add(key, cfg,
              std::vector<std::string>(cfg.threads(), benchmarkName(b)));
}

/** Register a multi-thread mix point (thread t runs mix[t]). */
inline void
registerMixPoint(SweepRunner &sweep, const std::string &key,
                 const SystemConfig &cfg, const std::vector<Benchmark> &mix,
                 std::uint64_t instructions = 0, std::uint64_t warmup = 0)
{
    std::vector<std::string> specs;
    for (Benchmark b : mix)
        specs.push_back(benchmarkName(b));
    sweep.add(key, cfg, std::move(specs), instructions, warmup);
}

/** Percent of @p before's stall cycles that @p after saves (0 when
 *  @p before is 0). */
inline double
stallReduction(std::uint64_t before, std::uint64_t after)
{
    return before ? (1.0 - double(after) / double(before)) * 100 : 0.0;
}

/** Arithmetic mean (0 for no values). */
inline double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

/** Geometric mean of (positive) values. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / double(v.size()));
}

} // namespace tacbench

#endif // TACSIM_BENCH_FIGURES_HH
