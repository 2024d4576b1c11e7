/**
 * @file
 * Typed metrics registry: the single catalogue of every statistic the
 * simulator exposes. Components register handles at construction under
 * hierarchical dotted names ("l2c.repl.tdrrip.psel"); the registry never
 * owns or touches hot-path storage, it only records pointers into the
 * per-component stats structs — an increment stays a plain `++stats_.x`,
 * so registration costs nothing when no sampler or dump reads it.
 *
 * Three metric kinds:
 *  - counter:   monotone within a measurement window, resets to zero
 *               (a `const std::uint64_t *` into a stats struct);
 *  - gauge:     instantaneous architectural state (DRRIP PSEL, CSALT way
 *               quota, predictor table occupancy) — survives resetStats
 *               by design, sampled through a `std::function<double()>`;
 *  - histogram: a `const Histogram *`, expanded in flat snapshots as
 *               `<name>.count/.mean/.max/.bucket<i>`.
 *
 * The registry also centralizes reset: components register reset hooks,
 * System::resetStats() calls resetAll(), and nonZeroAfterReset() audits
 * that every counter and histogram actually returned to zero — the
 * regression net for stats that used to survive warm-up.
 */

#ifndef TACSIM_OBS_REGISTRY_HH
#define TACSIM_OBS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/histogram.hh"

namespace tacsim {
namespace obs {

/** A registry's totals across instances (Registry::totals()). */
struct Totals
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Histogram> histograms;

    /** The total @p name; throws std::out_of_range naming it when no
     *  metric of that kind folds to it. */
    std::uint64_t counter(const std::string &name) const;
    const Histogram &histogram(const std::string &name) const;
};

class Registry
{
  public:
    /** One flat snapshot value (histograms arrive pre-expanded). */
    struct Value
    {
        bool isInt = true;
        std::uint64_t u = 0;
        double d = 0.0;
    };

    /** Register a counter backed by @p v. The pointee must outlive the
     *  registry. Names are validated ([a-z0-9._-], unique). */
    void addCounter(const std::string &name, const std::uint64_t *v);

    /** Register a gauge computed on demand by @p fn. */
    void addGauge(const std::string &name, std::function<double()> fn);

    /** Register a histogram backed by @p h. */
    void addHistogram(const std::string &name, const Histogram *h);

    /** Register a hook invoked by resetAll() (component stat reset). */
    void addResetHook(std::function<void()> hook);

    /** Invoke every reset hook, in registration order. */
    void resetAll();

    /** Number of registered metrics (histograms count once). */
    std::size_t size() const { return entries_.size(); }
    bool has(const std::string &name) const
    {
        return names_.count(name) != 0;
    }

    /**
     * Flat column names in registration order; histograms expand to
     * .count/.mean/.max/.bucket<i>. Matches sampleInto() positions.
     */
    std::vector<std::string> columns() const;

    /** Append the current flat values to @p out (same order/length as
     *  columns()). Reuses @p out's capacity across calls. */
    void sampleInto(std::vector<Value> &out) const;

    /**
     * Deterministic full dump, "name value\n" per flat column, doubles
     * with "%.12g" — the registry-backed counterpart of dumpRunResult.
     */
    std::string dumpText() const;

    /**
     * Names of counters / histogram columns whose value is non-zero
     * right now. Called immediately after resetAll() this must be empty;
     * anything listed is a stat that survived a reset. Gauges are
     * exempt: they expose architectural state (PSEL, quotas) that a
     * stats reset intentionally preserves.
     */
    std::vector<std::string> nonZeroAfterReset() const;

    /**
     * Every counter summed and every histogram merged (equal bucket
     * bounds only, else std::invalid_argument) under its name without
     * the instance index after the root: "l2c.1.misses.replay" counts
     * into "l2c.misses.replay". System indexes only repeated
     * components, so 1-core and N-core machines name totals alike.
     * Gauges are state, not totals, and are left out.
     */
    Totals totals() const;

  private:
    enum class Kind : std::uint8_t { Counter, Gauge, Hist };

    struct Entry
    {
        Kind kind;
        std::string name;
        const std::uint64_t *counter = nullptr;
        std::function<double()> gauge;
        const Histogram *hist = nullptr;
    };

    void addEntry(Entry e);

    std::vector<Entry> entries_;
    std::unordered_set<std::string> names_;
    std::vector<std::function<void()>> resetHooks_;
};

} // namespace obs
} // namespace tacsim

#endif // TACSIM_OBS_REGISTRY_HH
