/**
 * @file
 * Periodic metrics sampler: every N retired instructions it snapshots
 * the whole Registry and appends one JSONL record, producing the
 * `tacsim-timeseries-v1` format that scripts/timeseries.py reads:
 *
 *   {"schema":"tacsim-timeseries-v1","label":L,"interval":N,
 *    "columns":[...]}                       <- first line, once
 *   {"i":I,"c":C,"v":[...]}                 <- one line per sample
 *   {"event":"reset","i":I,"c":C}           <- stats-reset marker
 *
 * "i" is total retired instructions across threads, "c" the global
 * cycle; "v" aligns with "columns" (counters as integers, gauges with
 * %.12g — the simulation is deterministic, so equal runs produce
 * byte-equal files, which the determinism tests exploit).
 *
 * The run loop's cost when sampling is off is a null-pointer test; when
 * on, between samples it is one integer compare per scheduler
 * iteration.
 */

#ifndef TACSIM_OBS_TIMESERIES_HH
#define TACSIM_OBS_TIMESERIES_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/registry.hh"

namespace tacsim {
namespace obs {

class Sampler
{
  public:
    /**
     * Opens @p path for writing and emits the header line. Throws
     * std::runtime_error when the file cannot be created.
     * @param interval instructions between samples (> 0)
     * @param label free-form run label recorded in the header
     */
    Sampler(const Registry &registry, std::string path,
            std::uint64_t interval, const std::string &label);
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Cheap per-iteration check; samples when the next boundary is
     *  crossed. */
    void
    maybeSample(std::uint64_t instructions, Cycle cycle)
    {
        if (instructions >= next_)
            sample(instructions, cycle);
    }

    /** Unconditionally snapshot now and advance the next boundary. */
    void sample(std::uint64_t instructions, Cycle cycle);

    /** Record a stats-reset marker (so consumers can split warm-up from
     *  measurement without guessing at counter drops). */
    void markReset(std::uint64_t instructions, Cycle cycle);

    /** Emit a final sample (unless one just fired at this instruction
     *  count) and close the file. Idempotent; called by ~System. */
    void finish(std::uint64_t instructions, Cycle cycle);

    std::uint64_t samples() const { return samples_; }
    std::uint64_t interval() const { return interval_; }
    const std::string &path() const { return path_; }

  private:
    void writeSample(std::uint64_t instructions, Cycle cycle);

    const Registry &registry_;
    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint64_t interval_;
    std::uint64_t next_;
    std::uint64_t samples_ = 0;
    std::uint64_t lastSampledAt_ = ~std::uint64_t{0};
    std::vector<Registry::Value> scratch_;
};

} // namespace obs
} // namespace tacsim

#endif // TACSIM_OBS_TIMESERIES_HH
