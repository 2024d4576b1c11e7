/**
 * @file
 * SPEC CPU2017 mcf stand-in: the network-simplex core of mcf is dominated
 * by dependent pointer chasing over a multi-gigabyte arc/node arena with
 * poor locality, mixed with light sequential bookkeeping. We reproduce
 * that with a hash-permuted pointer chain across a 4GB-class virtual
 * arena (dependent loads), periodic sequential scans and sparse stores.
 */

#ifndef TACSIM_WORKLOADS_MCF_HH
#define TACSIM_WORKLOADS_MCF_HH

#include <string>

#include "common/rng.hh"
#include "workloads/generator.hh"

namespace tacsim {

struct McfParams
{
    Addr arenaBytes = Addr{3} << 30; ///< 3GB-class arena
    std::uint64_t nodeStride = 128;  ///< bytes between chained nodes
    unsigned fillerPerHop = 12;      ///< ALU work per pointer hop
    /** Probability a hop stays within the active spanning-tree region
     *  (whose pages are warm) instead of jumping across the arena. */
    double localHopFraction = 0.60;
    std::uint64_t localNodes = 3u << 10; ///< ~384KB active region
    /** Cold pivots land in a large sliding pool rather than uniformly:
     *  real mcf revisits arc neighbourhoods, so the leaf-PTE working
     *  set (pool/512 bytes) straddles the L2C but stays on chip —
     *  exactly the regime the paper's Fig. 3 reports. */
    Addr coldPoolBytes = Addr{48} << 20;
    std::uint64_t seed = 7;
};

class McfWorkload : public Generator
{
  public:
    explicit McfWorkload(McfParams p = {});

    std::string name() const override { return "mcf"; }
    Addr footprint() const override { return p_.arenaBytes; }

    /** Successor node at a given hop count — for tests. Depends on the
     *  hop so revisiting a node does not cycle the chain. */
    std::uint64_t successor(std::uint64_t node, std::uint64_t hop) const;

  private:
    void refill() override;

    McfParams p_;
    Rng rng_;
    Addr base_;
    std::uint64_t nodes_;
    std::uint64_t cur_ = 0;
    std::uint64_t hop_ = 0;
    std::uint64_t poolBase_ = 0;
    std::uint64_t scan_ = 0;
};

} // namespace tacsim

#endif // TACSIM_WORKLOADS_MCF_HH
