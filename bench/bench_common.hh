/**
 * @file
 * Shared plumbing for the per-figure bench binaries.
 *
 * Each binary is a plain program. Its main() registers every simulation
 * point it reads on the process-wide SweepRunner (registerPoint /
 * registerMixPoint), then calls benchMain() with a buildRows callback.
 * benchMain() runs the whole sweep once across a thread pool
 * (TACSIM_JOBS workers); buildRows then reads the results with
 * sweep().result(key) and adds the rows of a paper-vs-measured table,
 * which benchMain() prints so the output is directly comparable with
 * the paper's figure.
 *
 * Instruction budgets: TACSIM_INSTRUCTIONS / TACSIM_WARMUP override the
 * defaults for higher-fidelity runs; a value that is not a plain count
 * stops the binary before it sweeps. TACSIM_JSON_OUT=<path> additionally
 * writes the table plus per-run metadata as a JSON report.
 */

#ifndef TACSIM_BENCH_COMMON_HH
#define TACSIM_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <stdexcept>
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

/**
 * Optional VM axes for the figure binaries (TACSIM_VM_AXES=1): rerun a
 * figure's comparison under THP-style huge pages and nested (guest×host)
 * translation. Off by default so the standard point set, and every
 * report that lists it, is unchanged.
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

/**
 * The process-wide sweep runner every bench binary shares. Its first use
 * reads TACSIM_INSTRUCTIONS, TACSIM_WARMUP and TACSIM_JOBS; a malformed
 * value prints the error and exits 1 before any point registers.
 */
inline SweepRunner &
sweep()
{
    static SweepRunner runner = [] {
        try {
            defaultInstructions();
            defaultWarmup();
            return SweepRunner();
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "tacsim: %s\n", e.what());
            std::exit(1);
        }
    }();
    return runner;
}

/** Register one simulation point for the sweep (every thread of @p cfg
 *  runs @p b). */
inline void
registerPoint(const std::string &key, const SystemConfig &cfg, Benchmark b,
              std::uint64_t instructions = 0, std::uint64_t warmup = 0)
{
    sweep().add(key, cfg,
                std::vector<std::string>(cfg.threads(), benchmarkName(b)),
                instructions, warmup);
}

/** Register a multi-thread mix point (thread t runs mix[t]). */
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
 * Standard main body. The binaries take no arguments: any argument
 * prints a usage line and exits 2. Otherwise run the sweep, then
 * @p buildRows (which reads sweep().result() and calls addRow()),
 * print the table, and write the JSON report when TACSIM_JSON_OUT is
 * set. Exits 1, with no table, when a point or buildRows fails (the
 * report, listing every point, is still written), and 1 when the
 * report cannot be written.
 */
inline int
benchMain(int argc, char **argv, const std::string &title,
          const std::function<void()> &buildRows)
{
    if (argc > 1) {
        std::fprintf(stderr,
                     "usage: %s (no arguments; set TACSIM_INSTRUCTIONS, "
                     "TACSIM_WARMUP, TACSIM_JOBS, TACSIM_JSON_OUT)\n",
                     argv[0]);
        return 2;
    }
    if (sweep().points() > 0)
        std::fprintf(stderr, "tacsim: sweeping %zu points on %u threads\n",
                     sweep().points(), sweep().threadCount());
    sweep().run();

    bool failed = false;
    for (const SweepOutcome *o : sweep().outcomes()) {
        if (!o->ok) {
            std::fprintf(stderr, "tacsim: sweep point '%s' FAILED: %s\n",
                         o->key.c_str(), o->error.c_str());
            failed = true;
        }
    }
    if (!failed) {
        try {
            buildRows();
            printTable(title);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "tacsim: %s\n", e.what());
            rows().clear();
            failed = true;
        }
    }

    const char *jsonOut = std::getenv("TACSIM_JSON_OUT");
    const bool wantJson = jsonOut && *jsonOut;
    if (!sweep().writeJsonFromEnv(title, rows()) && wantJson)
        return 1;
    return failed ? 1 : 0;
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

#endif // TACSIM_BENCH_COMMON_HH
