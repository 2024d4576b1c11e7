/**
 * @file
 * The benchmark's workloads (named point sets) and the phase-split drive
 * of one simulation point through the simulator's public API:
 *
 *   makeWorkloadFromSpec -> System(cfg, workloads) -> warmup() -> run()
 *     -> collectResult() / dumpFullStats()
 *
 * Each phase is timed from outside. The drive also performs the output
 * checks every point must pass (full budget retired on every thread, a
 * clean registry reset audit after warm-up) and extracts the per-layer
 * work counters from the registry-backed public stats.
 */

#ifndef PERFBENCH_POINTS_HH
#define PERFBENCH_POINTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/runner.hh"

namespace perfbench {

class SpanTrace;

/** One simulation point: a config, one workload spec per thread and the
 *  per-thread instruction budgets. */
struct Point
{
    std::string key;    ///< "pr/+TEMPO", "mcf/proposed", ...
    std::string config; ///< "baseline", "T-DRRIP", ..., "proposed"
    tacsim::SystemConfig cfg;
    std::vector<std::string> specs; ///< one per hardware thread
    std::uint64_t instructions = 0; ///< measured, per thread
    std::uint64_t warmup = 0;       ///< per thread
};

/** A named workload: the point set one benchmark run executes. */
struct WorkloadDef
{
    std::string name;
    std::vector<Point> points;
};

/** The paper's one reference this benchmark checks against (Fig. 14):
 *  the +TEMPO step's geomean speedup over the DRRIP+SHiP baseline on the
 *  Table-II suite, in percent. */
constexpr double kPaperSpeedupPct = 5.1;
constexpr const char *kPaperStep = "+TEMPO";

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed (fed to SystemConfig::seed, which
 *  also seeds every thread's generator). Throws std::invalid_argument
 *  for an unknown name. */
WorkloadDef makeWorkloadDef(const std::string &name, std::uint64_t seed);

/**
 * Deterministic work counters of one measured phase, summed over points.
 * Every field is a simulated quantity read from public stats after the
 * measured run, so two runs of the same points give identical counts.
 */
struct LayerCounts
{
    std::uint64_t instructions = 0; ///< measured, all threads
    std::uint64_t cycles = 0;       ///< measured simulated cycles
    std::uint64_t threadCycles = 0; ///< cycles x threads (core ticks bound)
    std::uint64_t events = 0;       ///< events executed in the measured run
    std::uint64_t stallT = 0, stallR = 0, stallN = 0;

    std::uint64_t dtlbLookups = 0, stlbLookups = 0;
    std::uint64_t walks = 0, walkRefs = 0, walksMerged = 0, walksQueued = 0;
    /** PSC lookups, and those PSCL2 resolved (only the leaf PTE left). */
    std::uint64_t pscLookups = 0, pscLeafHits = 0;

    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2cAccesses = 0, l2cMisses = 0;
    std::uint64_t llcAccesses = 0, llcMisses = 0;
    std::uint64_t mshrMerges = 0, mshrFull = 0;
    /** LLC frames valid / total at the start of measurement. */
    std::uint64_t llcValid = 0, llcFrames = 0;
    /** Fills per replacement-policy slug (L2C and LLC). */
    std::map<std::string, std::uint64_t> fillsByPolicy;

    std::uint64_t atpIssued = 0, atpUseful = 0;
    std::uint64_t tempoIssued = 0, tempoUseful = 0;

    std::uint64_t dramReads = 0, dramRowHits = 0, dramRowAccesses = 0;
    std::uint64_t dramBusyCycles = 0, dramChannelCycles = 0;

    void add(const LayerCounts &o);
    /** Per kilo-instruction of measured work. */
    double pki(std::uint64_t v) const;
};

/** Host CPU seconds of the driving thread in each phase of one point.
 *  CPU time rather than elapsed time: it leaves out the time a
 *  paravirtualised host gave the CPU to other guests. */
struct PhaseTimes
{
    double setup = 0;   ///< workload construction + System construction
    double warmup = 0;  ///< System::warmup()
    double measure = 0; ///< System::run()
    double wall = 0;    ///< the whole drive: the phases, the checks
                        ///< between them, result collection, teardown

    /** Every phase multiplied by @p f. */
    PhaseTimes scaled(double f) const
    {
        return {setup * f, warmup * f, measure * f, wall * f};
    }
};

/** Everything one phase-split drive of a point produces. */
struct PointOutcome
{
    bool ok = false;
    std::string error; ///< why the point failed (empty when ok)
    PhaseTimes times;
    tacsim::RunResult result;
    std::string resultDump; ///< dumpRunResult(result)
    std::string fullStats;  ///< dumpFullStats(system)
    LayerCounts counts;
};

/**
 * Drive @p p phase by phase. Never throws: exceptions and failed checks
 * come back as ok == false with the reason. When @p spans is non-null
 * each phase is recorded as a span.
 */
PointOutcome drivePoint(const Point &p, SpanTrace *spans = nullptr);

/**
 * Drive @p p phase by phase and once through runSpecMix, and compare the
 * two dumpRunResult texts: empty when byte-identical, else the
 * differences (or why the drive failed). What the benchmark times is then
 * what the figure binaries report.
 */
std::vector<std::string> equivalenceDiffs(const Point &p);

/** 64-bit FNV-1a, the digest over points' stats dumps. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t h = 1469598103934665603ull);

} // namespace perfbench

#endif // PERFBENCH_POINTS_HH
