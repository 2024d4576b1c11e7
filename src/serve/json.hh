/**
 * @file
 * JSON string escaping for the reports tacsim writes: the
 * tacsim-sweep-v1 sweep report (sim/sweep.hh) and the benchmark's host
 * metadata. tacsim writes JSON but never reads it back, so there is no
 * parser here.
 */

#ifndef TACSIM_SERVE_JSON_HH
#define TACSIM_SERVE_JSON_HH

#include <string>

namespace tacsim {
namespace serve {

/** Escape @p s as a JSON string literal, quotes included. Quote,
 *  backslash and \b \f \n \r \t take their short escapes, every other
 *  byte below 0x20 becomes \u00XX, and all other bytes (UTF-8
 *  included) pass through unchanged. */
std::string jsonQuote(const std::string &s);

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_JSON_HH
