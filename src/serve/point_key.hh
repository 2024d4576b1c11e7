/**
 * @file
 * Canonical content hash of one experiment point — the single identity
 * every layer that reuses results agrees on.
 *
 * A "point" is everything that determines a simulation's outcome:
 *
 *   - the canonical config text (sim/config.hh canonicalConfigText —
 *     behavior-complete, ObsConfig excluded),
 *   - the per-thread workload specs, with "trace:<path>" specs resolved
 *     to the SHA-256 of the trace file's *bytes* (so renaming or moving
 *     a trace does not change identity, and editing one does),
 *   - the measured-instruction and warm-up budgets.
 *
 * pointKey() digests all of that into 64 hex chars. The same key is
 * used by the in-process sweep memo (sim/sweep.hh), the on-disk result
 * cache (serve/result_cache.hh), and the `point_key` field on every
 * tacsim-sweep-v1 run record — so a result computed anywhere is
 * recognizable everywhere.
 */

#ifndef TACSIM_SERVE_POINT_KEY_HH
#define TACSIM_SERVE_POINT_KEY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tacsim {

struct SystemConfig;

namespace serve {

/**
 * Content hash (64 lowercase hex chars) of the point
 * (@p cfg, @p specs, @p instructions, @p warmup). Budgets of 0 are
 * hashed as the resolved defaults (TACSIM_INSTRUCTIONS / TACSIM_WARMUP
 * environment overrides included), so a spelled-out default and an
 * implicit one share a key. Throws std::runtime_error when a
 * "trace:<path>" spec names an unreadable file. File digests are
 * memoized per (path, mtime, size) for the process lifetime.
 */
std::string pointKey(const SystemConfig &cfg,
                     const std::vector<std::string> &specs,
                     std::uint64_t instructions, std::uint64_t warmup);

/**
 * Identity of a *warmed machine state* rather than a finished result:
 * like pointKey but excluding the measured-instruction budget. Two
 * points that differ only in how long they measure share warm state,
 * which is what makes a checkpoint (sim/checkpoint.hh) reusable across
 * measurement budgets. It is the stamp inside every checkpoint the
 * runner writes (sim/runner.hh RunCheckpoint).
 */
std::string warmKey(const SystemConfig &cfg,
                    const std::vector<std::string> &specs,
                    std::uint64_t warmup);

/** True iff @p s looks like a point key (64 lowercase hex chars). */
bool isPointKey(const std::string &s);

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_POINT_KEY_HH
