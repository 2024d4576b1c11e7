/**
 * @file
 * Shared plumbing for the per-figure bench binaries.
 *
 * Each binary registers one google-benchmark case per configuration
 * point (pinned to a single iteration — a simulation is deterministic,
 * repeating it only burns time), accumulates the series it measures,
 * and prints a paper-vs-measured table after the benchmark run so the
 * output is directly comparable with the paper's figure.
 *
 * Execution is two-phase: binaries register their simulation points on
 * the process-wide SweepRunner (registerPoint / registerMixPoint) before
 * benchMain, which executes the whole sweep across a thread pool
 * (TACSIM_JOBS workers) and then runs the reporting cases, which fetch
 * the memoized results via cachedRun(). Binaries that skip registration
 * still work: cachedRun() falls back to executing lazily in-place.
 *
 * Instruction budgets: TACSIM_INSTRUCTIONS / TACSIM_WARMUP override the
 * defaults for higher-fidelity runs. TACSIM_JSON_OUT=<path> additionally
 * writes the table plus per-run metadata as a JSON report.
 */

#ifndef TACSIM_BENCH_COMMON_HH
#define TACSIM_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace tacbench {

using namespace tacsim;

/** One row of the final paper-vs-measured table. */
using Row = ReportRow;

inline std::vector<Row> &
rows()
{
    static std::vector<Row> r;
    return r;
}

inline void
addRow(std::string series, std::string label, double measured,
       double paper = std::nan(""), std::string unit = "")
{
    rows().push_back(
        {std::move(series), std::move(label), measured, paper,
         std::move(unit)});
}

/** Print the accumulated table with a figure title. */
inline void
printTable(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-28s %-14s %12s %12s %s\n", "series", "benchmark",
                "measured", "paper", "unit");
    for (const Row &r : rows()) {
        if (std::isnan(r.paper)) {
            std::printf("%-28s %-14s %12.3f %12s %s\n", r.series.c_str(),
                        r.label.c_str(), r.measured, "-",
                        r.unit.c_str());
        } else {
            std::printf("%-28s %-14s %12.3f %12.3f %s\n",
                        r.series.c_str(), r.label.c_str(), r.measured,
                        r.paper, r.unit.c_str());
        }
    }
    std::fflush(stdout);
}

/** Baseline Table-I system: DRRIP@L2, SHiP@LLC, no prefetchers. */
inline SystemConfig
baselineConfig()
{
    return SystemConfig{};
}

/** The paper's full proposal on top of the baseline. */
inline SystemConfig
proposedConfig(bool tempo = true)
{
    SystemConfig cfg = baselineConfig();
    TranslationAwareOptions o;
    o.tempo = tempo;
    applyTranslationAware(cfg, o);
    return cfg;
}

/**
 * Optional VM axes for the figure binaries (TACSIM_VM_AXES=1): rerun a
 * figure's comparison under THP-style huge pages and nested (guest×host)
 * translation. Off by default so the standard point set — and the
 * perf-smoke baseline — is unchanged.
 */
struct VmAxis
{
    const char *name; ///< sweep-key segment, e.g. "thp50"
    double thp2m;
    double thp1g;
    bool nested;
};

inline bool
vmAxesRequested()
{
    const char *v = std::getenv("TACSIM_VM_AXES");
    return v && *v && std::string(v) != "0";
}

inline const std::vector<VmAxis> &
vmAxes()
{
    static const std::vector<VmAxis> axes = {
        {"thp50", 0.5, 0.0, false},
        {"thp", 1.0, 0.0, false},
        {"nested", 0.0, 0.0, true},
    };
    return axes;
}

inline SystemConfig
withVmAxis(SystemConfig cfg, const VmAxis &a)
{
    cfg.vm.hugePages2M = a.thp2m;
    cfg.vm.hugePages1G = a.thp1g;
    cfg.vm.nested = a.nested;
    return cfg;
}

/** The process-wide sweep runner every bench binary shares. */
inline SweepRunner &
sweep()
{
    return globalSweep();
}

/** Phase 1: register one simulation point for the parallel sweep
 *  (every thread of @p cfg runs @p b). */
inline void
registerPoint(const std::string &key, const SystemConfig &cfg, Benchmark b,
              std::uint64_t instructions = 0, std::uint64_t warmup = 0)
{
    sweep().add(key, cfg,
                std::vector<std::string>(cfg.threads(), benchmarkName(b)),
                instructions, warmup);
}

/** Phase 1: register a multi-thread mix point (thread t runs mix[t]). */
inline void
registerMixPoint(const std::string &key, const SystemConfig &cfg,
                 const std::vector<Benchmark> &mix,
                 std::uint64_t instructions = 0, std::uint64_t warmup = 0)
{
    std::vector<std::string> specs;
    for (Benchmark b : mix)
        specs.push_back(benchmarkName(b));
    sweep().add(key, cfg, std::move(specs), instructions, warmup);
}

/**
 * Memoized run of one point under a caller-chosen key, unique per
 * point. Pre-registered keys return the sweep's result; unknown keys
 * register and execute on the spot (serial fallback). Either way the
 * point is listed in the JSON report.
 */
inline const RunResult &
cachedRun(const std::string &key, const SystemConfig &cfg, Benchmark b,
          std::uint64_t instructions = 0, std::uint64_t warmup = 0)
{
    registerPoint(key, cfg, b, instructions, warmup);
    return sweep().result(key);
}

/**
 * Register a single-shot google-benchmark case that executes @p fn once
 * and reports the wall time of the simulation.
 */
inline void
registerCase(const std::string &name, std::function<void()> fn)
{
    benchmark::RegisterBenchmark(
        name.c_str(),
        [fn](benchmark::State &state) {
            for (auto _ : state)
                fn();
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

/** Standard main body: execute the sweep, run the registered cases,
 *  print the table, and emit the JSON report if requested. */
inline int
benchMain(int argc, char **argv, const std::string &title)
{
    benchmark::Initialize(&argc, argv);
    if (sweep().points() > 0)
        std::fprintf(stderr, "tacsim: sweeping %zu points on %u threads\n",
                     sweep().points(), sweep().threadCount());
    sweep().run();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printTable(title);
    for (const SweepOutcome *o : sweep().outcomes()) {
        if (!o->ok)
            std::fprintf(stderr, "tacsim: sweep point '%s' FAILED: %s\n",
                         o->key.c_str(), o->error.c_str());
    }
    sweep().writeJsonFromEnv(title, rows());
    return 0;
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

#endif // TACSIM_BENCH_COMMON_HH
