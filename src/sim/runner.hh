/**
 * @file
 * One-call experiment runner: build a System for one workload spec per
 * thread, warm up, measure, and compute the metrics the paper reports
 * (IPC, per-class MPKIs, ROB-stall breakdown, leaf-translation response
 * distribution, prefetch accuracy) from the metrics registry's totals.
 *
 * Instruction budgets default to values that keep every bench binary in
 * the tens of seconds; override with the TACSIM_INSTRUCTIONS and
 * TACSIM_WARMUP environment variables for higher-fidelity runs. A
 * malformed override is an error, never a silent fallback.
 */

#ifndef TACSIM_SIM_RUNNER_HH
#define TACSIM_SIM_RUNNER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads/benchmarks.hh"

namespace tacsim {

/** Collapsed metrics of one simulation (single thread unless noted). */
struct RunResult
{
    std::string benchmark;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0;

    /** Discrete events executed by the engine over the system's whole
     *  lifetime (warm-up included): a deterministic work count that
     *  the stats dump carries. */
    std::uint64_t events = 0;

    double stlbMpki = 0;

    // Per-class MPKIs (Table II metrics).
    double l2ReplayMpki = 0, l2NonReplayMpki = 0, l2Ptl1Mpki = 0;
    double llcReplayMpki = 0, llcNonReplayMpki = 0, llcPtl1Mpki = 0;

    // ROB-head stall cycles by cause (Figs. 1/16).
    std::uint64_t stallT = 0, stallR = 0, stallN = 0;
    double avgStallPerWalk = 0, avgStallPerReplay = 0,
           avgStallPerNonReplay = 0;
    std::uint64_t maxStallPerWalk = 0, maxStallPerReplay = 0;

    // Leaf-translation response distribution (Fig. 3), fractions.
    double leafL1D = 0, leafL2C = 0, leafLLC = 0, leafDram = 0;
    // Replay-load response distribution (Fig. 3), fractions.
    double replayL1D = 0, replayL2C = 0, replayLLC = 0, replayDram = 0;

    // On-chip hit rate for leaf translations (the paper's 99% claim).
    double leafOnChipHitRate = 0;

    // ATP/TEMPO activity.
    std::uint64_t atpIssued = 0, atpUseful = 0;
    std::uint64_t tempoIssued = 0;

    // Per-thread cycles for SMT/multicore speedups.
    std::vector<std::uint64_t> threadCycles;
    std::vector<std::uint64_t> threadInstructions;

    /** Recall-distance histograms (Figs. 5, 7, 18) by registry total
     *  name ("llc.recall.translation"), set only by a profiled run. No
     *  other histogram is carried: callers keep results by the round. */
    std::map<std::string, Histogram> recall;

    /** IPC of thread @p t in this run. */
    double
    threadIpc(std::size_t t) const
    {
        return threadCycles[t]
            ? double(threadInstructions[t]) / double(threadCycles[t])
            : 0.0;
    }
};

/** One scalar metric of RunResult: its external name and its member
 *  (exactly one of u64 / f64 is set). */
struct RunResultField
{
    constexpr RunResultField(const char *n, std::uint64_t RunResult::*m)
        : name(n), u64(m)
    {}
    constexpr RunResultField(const char *n, double RunResult::*m)
        : name(n), f64(m)
    {}

    const char *name;
    std::uint64_t RunResult::*u64 = nullptr;
    double RunResult::*f64 = nullptr;
};

/**
 * Every scalar metric of RunResult, in stats-dump order. The stats dump
 * (sim/stats_dump.hh) and the tests walk this table, so adding a metric
 * means a member, one row here and its formula over registry totals in
 * collectResult. `benchmark`, the per-thread vectors and `recall` are
 * not scalars; each consumer writes them around the table.
 */
inline constexpr RunResultField kRunResultFields[] = {
    {"instructions", &RunResult::instructions},
    {"cycles", &RunResult::cycles},
    {"events", &RunResult::events},
    {"ipc", &RunResult::ipc},
    {"stlb_mpki", &RunResult::stlbMpki},
    {"l2_replay_mpki", &RunResult::l2ReplayMpki},
    {"l2_nonreplay_mpki", &RunResult::l2NonReplayMpki},
    {"l2_ptl1_mpki", &RunResult::l2Ptl1Mpki},
    {"llc_replay_mpki", &RunResult::llcReplayMpki},
    {"llc_nonreplay_mpki", &RunResult::llcNonReplayMpki},
    {"llc_ptl1_mpki", &RunResult::llcPtl1Mpki},
    {"stall_t", &RunResult::stallT},
    {"stall_r", &RunResult::stallR},
    {"stall_n", &RunResult::stallN},
    {"avg_stall_per_walk", &RunResult::avgStallPerWalk},
    {"avg_stall_per_replay", &RunResult::avgStallPerReplay},
    {"avg_stall_per_nonreplay", &RunResult::avgStallPerNonReplay},
    {"max_stall_per_walk", &RunResult::maxStallPerWalk},
    {"max_stall_per_replay", &RunResult::maxStallPerReplay},
    {"leaf_l1d", &RunResult::leafL1D},
    {"leaf_l2c", &RunResult::leafL2C},
    {"leaf_llc", &RunResult::leafLLC},
    {"leaf_dram", &RunResult::leafDram},
    {"leaf_onchip_hit_rate", &RunResult::leafOnChipHitRate},
    {"replay_l1d", &RunResult::replayL1D},
    {"replay_l2c", &RunResult::replayL2C},
    {"replay_llc", &RunResult::replayLLC},
    {"replay_dram", &RunResult::replayDram},
    {"atp_issued", &RunResult::atpIssued},
    {"atp_useful", &RunResult::atpUseful},
    {"tempo_issued", &RunResult::tempoIssued},
};

/**
 * @p text as a count: decimal digits only, no greater than @p max, or
 * std::nullopt ("400k", "2e6", "-1", " 4" and "" are not counts, not
 * 400, 2, 2^64-1, 4 and 0). Read every count a user types with it
 * (environment, command line, topology text).
 */
std::optional<std::uint64_t> parseCount(std::string_view text,
                                        std::uint64_t max = UINT64_MAX);

/**
 * The count in environment variable @p name. Unset, empty or 0 gives
 * @p fallback; any other value must be a parseCount() count no greater
 * than @p max, or this throws std::invalid_argument naming the variable
 * and its value.
 */
std::uint64_t envCount(const char *name, std::uint64_t fallback,
                       std::uint64_t max = UINT64_MAX);

/** Default measured instructions per thread: envCount of
 *  TACSIM_INSTRUCTIONS, else 400000. */
std::uint64_t defaultInstructions();
/** Default warm-up instructions per thread: envCount of TACSIM_WARMUP,
 *  else 100000. */
std::uint64_t defaultWarmup();

/**
 * Optional checkpoint files of one run (sim/checkpoint.hh). At most one
 * path may be set: `save` writes the warmed machine, `load` replaces
 * the warm-up with it. The members are value-initialized so a
 * designated initializer can name just one: `{.load = path}`.
 */
struct RunCheckpoint
{
    /** After warm-up, quiesce and write the machine here, then
     *  measure. Saving is observation, not perturbation: the result is
     *  byte-identical to a run that restores the file. */
    std::string save{};
    /** Restore the machine from here instead of warming up, then
     *  measure. The file must have been saved from the same point
     *  (config, specs and warm-up budget) or the run throws. */
    std::string load{};
};

/**
 * Run one simulation point: @p specs holds exactly one workload spec per
 * hardware thread of @p cfg ("mcf", or "trace:<path>" to replay a
 * recorded tacsim-trace-v1 file). Warm up for @p warmup instructions per
 * thread, reset the statistics, and measure @p instructionsPerThread
 * (0 budgets = the defaults above). The result is labelled with the
 * workloads' names joined by "-". Throws std::invalid_argument when the
 * spec count is not the thread count or when @p ckpt sets both paths.
 */
RunResult runSpecMix(const SystemConfig &cfg,
                     const std::vector<std::string> &specs,
                     std::uint64_t instructionsPerThread = 0,
                     std::uint64_t warmup = 0,
                     const RunCheckpoint &ckpt = {});

/**
 * runSpecMix over pre-built workloads (one per thread), for callers
 * that wrap workloads themselves: the trace CLI tees a run through a
 * RecordingWorkload. Workloads have no spec, so this path does not
 * checkpoint.
 */
RunResult runWorkloads(const SystemConfig &cfg,
                       std::vector<std::unique_ptr<Workload>> workloads,
                       std::uint64_t instructionsPerThread = 0,
                       std::uint64_t warmup = 0);

/** The RunResult of an already-run system, computed from the totals of
 *  sys.metrics() by name. A name no component registered throws
 *  std::out_of_range naming it: a renamed counter fails, not reads 0. */
RunResult collectResult(System &sys, const std::string &name);

/** speedup = baselineCycles / enhancedCycles. */
double speedup(const RunResult &baseline, const RunResult &enhanced);

/**
 * Harmonic speedup of a mix versus solo runs (paper Fig. 17):
 *   H = n / sum_t (IPC_solo_t / IPC_mix_t)
 */
double harmonicSpeedup(const std::vector<double> &soloIpc,
                       const RunResult &mix);

} // namespace tacsim

#endif // TACSIM_SIM_RUNNER_HH
