/**
 * @file
 * Deterministic textual serialization of a RunResult, plus a
 * field-by-field comparator. This is the contract behind two safety
 * nets:
 *
 *  - golden-run snapshot tests (tests/golden/): small-budget end-to-end
 *    dumps checked into the tree, regenerated via
 *    scripts/regen_golden.sh, diffed field by field on mismatch;
 *  - determinism tests: the same point run twice (serially and across
 *    the sweep thread pool) must produce byte-identical dumps.
 *
 * The format is strict "key value\n" lines in a fixed field order:
 * benchmark, the kRunResultFields rows (sim/runner.hh), then per-thread
 * cycles and instructions. Doubles are printed with "%.12g" — the simulation is deterministic, so
 * equal runs produce bit-equal doubles and therefore byte-equal text.
 */

#ifndef TACSIM_SIM_STATS_DUMP_HH
#define TACSIM_SIM_STATS_DUMP_HH

#include <string>
#include <vector>

#include "sim/runner.hh"

namespace tacsim {

/** Serialize @p r as deterministic "key value" lines. */
std::string dumpRunResult(const RunResult &r);

/**
 * Every metric the hierarchy registered, as deterministic "name value"
 * lines (the registry-backed complement of dumpRunResult: raw counters
 * per component rather than collapsed paper metrics). diffDumps works
 * on this format too.
 */
std::string dumpFullStats(const System &sys);

/**
 * Compare two dumps field by field. Returns human-readable difference
 * descriptions ("field: expected X, got Y"), empty when identical.
 * Missing/extra keys are reported as differences too.
 */
std::vector<std::string> diffDumps(const std::string &expected,
                                   const std::string &actual);

} // namespace tacsim

#endif // TACSIM_SIM_STATS_DUMP_HH
