/**
 * @file
 * Topology text: the shape of the simulated machine in one compact
 * string — how many cores/SMT threads to build, the shared-LLC geometry
 * and its slicing, the DRAM channel count, and the per-core arbitration
 * knobs at the LLC — so a 64-core mix is one string away:
 *
 *     cores=32,smt=2,llc=16MB/32w,slices=8,chan=4
 *
 * Grammar (comma-separated `key=value`, no spaces, every key at most
 * once):
 *
 *     cores=<n>          hardware cores, 1..1024
 *     smt=<n>            threads per core, 1..8
 *     llc=<size>/<w>w    total LLC capacity and associativity
 *                        (e.g. 16MB/32w; size accepts KB/MB/GB or
 *                        plain bytes; "auto" = 2MB x cores)
 *     slices=<n>         LLC slice count (power of two, <= sets)
 *     slice_lat=<c>      extra cycles per ring hop to a remote slice
 *     chan=<n>           DRAM channels (0/omitted = 1 per 4 cores)
 *     mshr_quota=<n>     max in-flight LLC MSHRs per core (0 = off)
 *     bw=<t>[/<w>c]      LLC demand-lookup tokens per core per window
 *                        of <w> cycles (default window 64; 0 = off)
 *
 * The text has no representation of its own: it parses straight into
 * SystemConfig's composition fields (cores -> numCores, smt ->
 * threadsPerCore, llc -> llcTotalBytes and llcPerCore.ways, slices ->
 * llcSlices, slice_lat -> llcSliceHopLatency, chan -> dram.channels,
 * mshr_quota -> llcMshrQuotaPerCore, bw -> llcBwTokensPerCore and
 * llcBwWindow) and prints back from them. Every count must be decimal
 * digits that fit its field (parseCount, sim/runner.hh). topologyText()
 * emits the canonical form (defaults omitted, fixed key order), and
 * configFromTopology() of that text reproduces the fields. Malformed
 * text or an impossible shape throws std::invalid_argument with a
 * stable "topology: ..." message.
 */

#ifndef TACSIM_SIM_TOPOLOGY_HH
#define TACSIM_SIM_TOPOLOGY_HH

#include <cstdint>
#include <string>

#include "sim/config.hh"

namespace tacsim {

/** Total LLC bytes: llcTotalBytes, or llcPerCore.sizeBytes per core
 *  when that is 0 ("auto"). */
std::uint64_t llcBytesOf(const SystemConfig &cfg);

/** DRAM channels: dram.channels, or one per four cores when that is 0
 *  (Table I). */
unsigned dramChannelsOf(const SystemConfig &cfg);

/** Throw std::invalid_argument with a stable "topology: ..." message
 *  on the first field of @p cfg that cannot build a machine that runs:
 *  the composition fields, the L1D/L2/TLB geometries, the PSC sizes,
 *  the core's widths and ROB, the L1D/L2 MSHRs, the walker's
 *  concurrency, the DRAM bank and row geometry and the LLC wrapper
 *  pair. The parser and System's constructor both call this. */
void validateTopology(const SystemConfig &cfg);

/** @p base with its composition fields set from @p text (grammar in the
 *  file comment); keys the text omits take SystemConfig's defaults.
 *  Validated. */
SystemConfig configFromTopology(const std::string &text,
                                SystemConfig base = {});

/** Canonical text of @p cfg's composition fields: defaults omitted,
 *  fixed key order. */
std::string topologyText(const SystemConfig &cfg);

} // namespace tacsim

#endif // TACSIM_SIM_TOPOLOGY_HH
