/**
 * @file
 * Exact JSON codec for RunResult — the form the result cache stores.
 *
 * Unlike the human-facing tacsim-sweep-v1 report (which rounds doubles
 * to %.6g for readability), this codec must round-trip: a RunResult
 * stored in the result cache and decoded later has to be
 * indistinguishable from the freshly computed one, or a cache hit
 * would produce a different canonical stats dump than the run it
 * memoizes. Doubles therefore serialize with full precision
 * (serve/json.hh prints %.17g). The scalar metrics are the rows of
 * kRunResultFields (sim/runner.hh), the table the stats dump walks
 * too, so the codec covers every metric by construction; decode
 * rejects missing fields rather than defaulting them, so an entry
 * written before a metric existed is refused, never read as zero.
 */

#ifndef TACSIM_SERVE_RESULT_CODEC_HH
#define TACSIM_SERVE_RESULT_CODEC_HH

#include "serve/json.hh"
#include "sim/runner.hh"

namespace tacsim {
namespace serve {

/** Encode every field of @p r as a JSON object. */
JsonValue runResultToJson(const RunResult &r);

/** Decode a runResultToJson object; throws std::runtime_error on
 *  missing or mistyped fields. */
RunResult runResultFromJson(const JsonValue &v);

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_RESULT_CODEC_HH
