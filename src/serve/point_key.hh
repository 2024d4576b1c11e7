/**
 * @file
 * Canonical content hash of one experiment point: what "the same
 * simulation" means wherever tacsim compares points.
 *
 * A "point" is everything that determines a simulation's outcome:
 *
 *   - the canonical config text (sim/config.hh canonicalConfigText —
 *     behavior-complete, ObsConfig excluded),
 *   - the per-thread workload specs, with "trace:<path>" specs resolved
 *     to the digest of the trace file's *bytes* (so renaming or moving
 *     a trace does not change identity, and editing one does),
 *   - the measured-instruction and warm-up budgets.
 *
 * pointKey() digests all of that with 128-bit FNV-1a into 32 hex chars.
 * The in-process sweep memo (sim/sweep.hh) keys on it, so one point
 * registered under two names runs once, and every tacsim-sweep-v2 run
 * record carries it as `point_key`, so reports can be joined by
 * identity. The key only has to tell apart points that are not
 * adversarial; a cryptographic digest buys nothing here.
 *
 * The key does not cover the simulator itself: the same point simulated
 * by a different build hashes the same. That is why no result is kept
 * across processes.
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
 * Content hash (32 lowercase hex chars) of the point
 * (@p cfg, @p specs, @p instructions, @p warmup). Budgets of 0 are
 * hashed as the resolved defaults (TACSIM_INSTRUCTIONS / TACSIM_WARMUP
 * environment overrides included), so a spelled-out default and an
 * implicit one share a key. Throws std::runtime_error when a
 * "trace:<path>" spec names an unreadable file.
 */
std::string pointKey(const SystemConfig &cfg,
                     const std::vector<std::string> &specs,
                     std::uint64_t instructions, std::uint64_t warmup);

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_POINT_KEY_HH
