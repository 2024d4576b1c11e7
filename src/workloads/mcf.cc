#include "workloads/mcf.hh"


namespace tacsim {

namespace {
constexpr Addr kIpBase = 0x500000;

constexpr Addr
ip(unsigned site)
{
    return kIpBase + site * 4;
}
} // namespace

McfWorkload::McfWorkload(McfParams p)
    : p_(p), rng_(p.seed),
      base_(Addr{1} << 41),
      nodes_(p.arenaBytes / p.nodeStride)
{
    cur_ = rng_.range(nodes_);
}

std::uint64_t
McfWorkload::successor(std::uint64_t node, std::uint64_t hop) const
{
    // Most hops revisit the active spanning-tree region (small enough to
    // stay cache/TLB-warm); the rest pivot anywhere in the arena. The
    // hop count is mixed in so revisiting a node does not cycle.
    const std::uint64_t h = hashCombine(hashCombine(node, hop),
                                        p_.seed * 31);
    const double u = double(h >> 11) * 0x1.0p-53;
    if (u < p_.localHopFraction)
        return hashMix(h) % p_.localNodes; // active tree region
    // Pivot to a distant subtree within the sliding cold pool.
    const std::uint64_t poolNodes = p_.coldPoolBytes / p_.nodeStride;
    return (poolBase_ + hashMix(h ^ 0x51ca) % poolNodes) % nodes_;
}

void
McfWorkload::refill()
{
    // One pointer hop: the address of the next node comes from the data
    // of the previous load (dependsOnPrevLoad) — this is what makes mcf's
    // replay loads serialize at the ROB head.
    const Addr nodeAddr = base_ + cur_ * p_.nodeStride;
    emitLoad(ip(0), nodeAddr, true);

    // A second field of the node (same cache line: merges in the MSHR).
    emitLoad(ip(1), nodeAddr + 16, true);

    emitNonMem(ip(2), p_.fillerPerHop);

    // Occasional cost update (store to the node, after its data is in).
    if (rng_.chance(0.2))
        emitStore(ip(3), nodeAddr + 32, true);

    // Light bookkeeping scan over the ~4MB price array (LLC-resident,
    // L2-missing: the paper's small non-replay MPKI for mcf).
    if (rng_.chance(0.25)) {
        emitLoad(ip(4), base_ + p_.arenaBytes + (scan_++ % (1u << 19)) * 8);
        emitNonMem(ip(5), 2);
    }

    cur_ = successor(cur_, hop_++);
    if (hop_ % 8 == 0)
        poolBase_ = (poolBase_ + 1) % nodes_; // pool slides slowly
}

} // namespace tacsim
