/**
 * @file
 * Parallel sweep runner: a registered job list of named simulation
 * points executed across a std::thread pool, with a mutex-guarded
 * result map, deterministic (registration-order) reporting independent
 * of completion order, and per-job exception capture so one diverging
 * configuration reports an error instead of killing the whole sweep.
 *
 * Every simulation point is an independent, deterministic System, so
 * running them concurrently is safe and produces results identical to a
 * serial run. The pool size comes from TACSIM_JOBS (default:
 * hardware_concurrency).
 *
 * The runner doubles as the structured-results layer: writeJson() (or
 * writeJsonFromEnv(), keyed on TACSIM_JSON_OUT) emits a machine-readable
 * report with the series/label/measured/paper rows of the bench harness
 * plus per-run metadata (config key, benchmark, instruction budgets,
 * seed, wall time, errors).
 */

#ifndef TACSIM_SIM_SWEEP_HH
#define TACSIM_SIM_SWEEP_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/runner.hh"

namespace tacsim {

/** One row of a paper-vs-measured report. */
struct ReportRow
{
    std::string series;  ///< e.g. "T-SHiP"
    std::string label;   ///< e.g. benchmark name
    double measured = 0;
    double paper = std::nan(""); ///< NaN when the paper gives no number
    std::string unit;
};

/** Outcome of one sweep point (success or captured failure). */
struct SweepOutcome
{
    std::string key;
    /** Canonical content hash of the simulation point
     *  (serve::pointKey — config + workload content + budgets).
     *  Empty for custom jobs, whose behavior the runner cannot see. */
    std::string pointKey;
    bool ok = false;
    bool cached = false; ///< result came from an attached SweepCache
    RunResult result;   ///< valid only when ok
    std::string error;  ///< exception text when !ok
    double wallMs = 0;  ///< wall time of this point's simulation

    /** Process peak RSS (KiB) sampled when the point finished. The
     *  reading is a process-wide high-water mark, so it bounds (rather
     *  than isolates) the point's own footprint. */
    std::uint64_t peakRssKb = 0;

    // Job metadata echoed for the JSON report.
    std::string benchmark;
    /** Canonical topology spec of the point's config ("" for custom
     *  jobs; see sim/topology.hh). */
    std::string topology;
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;
    std::uint64_t seed = 0;
};

/**
 * Persistent result store the runner can consult before simulating a
 * point. Keys are canonical content hashes (serve::pointKey), so a
 * cache populated by any process — an earlier sweep, another figure
 * binary, a different machine — is valid here. Implementations must be
 * thread-safe: the pool calls lookup()/store() concurrently. The
 * canonical implementation is serve::ResultCache's adapter
 * (serve/result_cache.hh).
 */
class SweepCache
{
  public:
    virtual ~SweepCache() = default;

    /** Fill @p out and return true when @p pointKey is cached. A miss
     *  (including a corrupt or unreadable entry) returns false. */
    virtual bool lookup(const std::string &pointKey, RunResult &out) = 0;

    /** Record a freshly computed result. @p statsDump is the canonical
     *  dump (dumpRunResult) so the store can serve it byte-identically
     *  later. */
    virtual void store(const std::string &pointKey,
                       const RunResult &result,
                       const std::string &statsDump) = 0;
};

/**
 * Two-phase sweep executor: add() points, run() them across the pool,
 * then read result()/outcome() in any order. run() is the only place a
 * point executes. Registration is memoized on the *canonical point
 * hash* (serve::pointKey), not the name: the same simulation point
 * added under two names runs once (the second name aliases the first),
 * and re-registering a name for a different point throws instead of
 * silently returning the first registration's result.
 */
class SweepRunner
{
  public:
    /** @p jobs 0 selects defaultJobs() (TACSIM_JOBS / hw concurrency). */
    explicit SweepRunner(unsigned jobs = 0);

    /** Register one simulation point: runSpecMix(@p cfg, @p specs,
     *  @p instructions, @p warmup), one workload spec per thread
     *  (0 budgets = runner defaults). The JSON benchmark label is the
     *  run's own label once the point has run. */
    std::size_t add(const std::string &key, const SystemConfig &cfg,
                    std::vector<std::string> specs,
                    std::uint64_t instructions = 0,
                    std::uint64_t warmup = 0);

    /** Register an arbitrary job (tests use it to inject faults). */
    std::size_t addCustom(const std::string &key,
                          std::function<RunResult()> fn);

    /** Execute every registered-but-unrun point across the pool. */
    void run();

    /**
     * Result for @p key. Throws std::runtime_error for unknown keys,
     * for points that have not run yet, and for points whose job
     * failed (re-raising the captured error).
     */
    const RunResult &result(const std::string &key) const;

    /** Outcome (including captured failures); nullptr if unknown or not
     *  yet run. */
    const SweepOutcome *outcome(const std::string &key) const;

    /** All completed outcomes, in registration order. */
    std::vector<const SweepOutcome *> outcomes() const;

    std::size_t points() const { return jobs_.size(); }
    unsigned threadCount() const { return threads_; }

    /** TACSIM_JOBS env var if set (>0), else hardware_concurrency. */
    static unsigned defaultJobs();

    /**
     * Attach a persistent result store consulted before each point
     * simulates (and fed after). Pass nullptr to detach. The cache must
     * outlive the runner or be detached first; custom jobs (no point
     * hash) always simulate.
     */
    void attachCache(SweepCache *cache) { cache_ = cache; }
    SweepCache *cache() const { return cache_; }

    /** Write the JSON report to @p path; false on I/O failure. */
    bool writeJson(const std::string &path, const std::string &title,
                   const std::vector<ReportRow> &rows) const;

    /** writeJson() to $TACSIM_JSON_OUT; false when unset or on I/O
     *  failure. */
    bool writeJsonFromEnv(const std::string &title,
                          const std::vector<ReportRow> &rows) const;

  private:
    struct Job
    {
        std::string key;
        std::string pointKey;  ///< canonical hash ("" for custom)
        std::function<RunResult()> fn;
        std::string topology;  ///< canonical spec ("" for custom)
        std::uint64_t instructions = 0, warmup = 0, seed = 0;
        bool done = false;
    };

    std::size_t addJob(Job job);
    void execute(Job &job);

    unsigned threads_;
    std::vector<Job> jobs_;
    /** Registration name -> job index; aliases share an index. */
    std::unordered_map<std::string, std::size_t> index_;
    /** Canonical point hash -> job index (the real memo). */
    std::unordered_map<std::string, std::size_t> hashIndex_;
    SweepCache *cache_ = nullptr;
    mutable std::mutex mutex_; ///< guards results_ and Job::done
    std::unordered_map<std::string, SweepOutcome> results_;
};

} // namespace tacsim

#endif // TACSIM_SIM_SWEEP_HH
