/**
 * @file
 * The shape of the simulated machine. Machines are C++ values: a caller
 * assigns SystemConfig's composition fields (numCores, threadsPerCore,
 * llcPerCore.ways and dram.channels).
 * This file derives the LLC size and the DRAM channel count from them,
 * checks that a config builds a machine that runs, and prints the
 * one-line label every sweep report carries:
 *
 *     cores=32,smt=2,llc=16MB/32w,chan=4
 */

#ifndef TACSIM_SIM_TOPOLOGY_HH
#define TACSIM_SIM_TOPOLOGY_HH

#include <cstdint>
#include <string>

#include "sim/config.hh"

namespace tacsim {

/** Total LLC bytes: llcPerCore.sizeBytes per core. */
std::uint64_t llcBytesOf(const SystemConfig &cfg);

/** DRAM channels: dram.channels, or one per four cores when that is 0
 *  (Table I). */
unsigned dramChannelsOf(const SystemConfig &cfg);

/** Throw std::invalid_argument with a stable "topology: ..." message
 *  on the first field of @p cfg that cannot build a machine that runs:
 *  the composition fields, the L1D/L2/TLB geometries, the PSC sizes,
 *  the core's widths and ROB, the L1D/L2 MSHRs, the walker's
 *  concurrency, the DRAM bank and row geometry and the LLC wrapper
 *  pair. System's constructor calls this. */
void validateTopology(const SystemConfig &cfg);

/** Label of @p cfg's composition fields: `key=value` pairs in the
 *  fixed order cores, smt, llc (<size>/<ways>w, the total size in the
 *  largest exact unit; printed when the ways differ from the default)
 *  and chan, each omitted at its default but cores. */
std::string topologyText(const SystemConfig &cfg);

} // namespace tacsim

#endif // TACSIM_SIM_TOPOLOGY_HH
