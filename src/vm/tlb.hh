/**
 * @file
 * Set-associative TLB (used for DTLB, ITLB and the unified STLB) with LRU
 * replacement, plus an optional recall-distance profiler for the paper's
 * Fig. 18.
 *
 * Lookups are functional; the owning core/walker charges the latency.
 * Entries are keyed by (ASID, VPN, page size) so SMT threads and
 * multi-core workloads can share a structure without aliasing, and so a
 * single array can hold 4K, 2M and 1G translations side by side (a
 * skewed/shared design: each page size indexes the sets with its own
 * VPN bits). Per-size occupancy counters let the common all-4K case
 * probe exactly one set, keeping the hot path as cheap as before.
 */

#ifndef TACSIM_VM_TLB_HH
#define TACSIM_VM_TLB_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/recall_profiler.hh"
#include "common/set_index.hh"
#include "common/types.hh"

namespace tacsim {

namespace obs {
class Registry;
} // namespace obs

struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** hits/fills broken out by mapping granule (indexed by PageSize). */
    std::array<std::uint64_t, kNumPageSizes> hitsBySize = {};
    std::array<std::uint64_t, kNumPageSizes> fillsBySize = {};

    void reset() { *this = TlbStats{}; }
};

class Tlb
{
  public:
    /**
     * @param entries total entries (must be ways * power-of-two sets)
     * @param ways associativity
     * @param latency lookup latency in cycles (charged by the caller)
     */
    Tlb(std::string name, std::uint32_t entries, std::uint32_t ways,
        Cycle latency, bool profileRecall = false);

    /**
     * Look up @p vaddr in address space @p asid. On a hit, writes the
     * mapping's page-aligned physical base to @p pfnBase, its granule to
     * @p ps, and refreshes LRU. The caller composes the full physical
     * address as pfnBase | pageOffset(vaddr, ps).
     */
    bool lookup(std::uint16_t asid, Addr vaddr, Addr &pfnBase,
                PageSize &ps);

    /** Convenience overload: writes the full translated physical
     *  address of @p vaddr to @p paddr. */
    bool lookup(std::uint16_t asid, Addr vaddr, Addr &paddr);

    /** Probe without updating LRU or stats (for prefetcher hooks);
     *  writes the full translated physical address. */
    bool probe(std::uint16_t asid, Addr vaddr, Addr &paddr) const;

    /**
     * Install a translation covering the @p ps page around @p vaddr,
     * backed by physical base @p pfnBase (aligned to pageBytes(ps));
     * evicts LRU within the set.
     */
    void fill(std::uint16_t asid, Addr vaddr, Addr pfnBase,
              PageSize ps = PageSize::Size4K);

    /** Drop everything (context-switch style). */
    void flush();

    Cycle latency() const { return latency_; }
    const TlbStats &stats() const { return stats_; }
    void resetStats();

    /** Register counters (and recall histograms when profiled) under
     *  "@p prefix.", plus the reset hook. */
    void registerMetrics(obs::Registry &registry,
                         const std::string &prefix);
    const std::string &name() const { return name_; }
    std::uint32_t entries() const { return sets_ * ways_; }
    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }

    const RecallProfiler *recallProfiler() const { return profiler_.get(); }

    /** Visit every valid entry as (asid, vpn, pfnBase, pageSize); vpn is
     *  at the entry's own granule (vaddr >> pageShift(pageSize)). */
    void forEachEntry(const std::function<void(std::uint16_t, Addr, Addr,
                                               PageSize)> &fn) const;

    /**
     * Verify structural invariants: unique (asid, vpn, size) per set,
     * entries indexed into the right set, LRU stamps behind the clock,
     * PFNs aligned to their own page size, and no two entries of
     * different sizes covering overlapping virtual ranges.
     * Throws verify::InvariantViolation.
     */
    void checkInvariants() const;

    /** Raw entry write bypassing fill()'s dedup/refresh — verifier tests
     *  use this to seed corrupted state (duplicate keys, bogus PFNs). */
    void pokeForTest(std::uint32_t set, std::uint32_t way,
                     std::uint16_t asid, Addr vpn, Addr pfn,
                     PageSize ps = PageSize::Size4K);

  private:
    struct Entry
    {
        Addr vpn = 0; ///< vaddr >> pageShift(size)
        Addr pfn = 0; ///< physical base, aligned to pageBytes(size)
        std::uint64_t lru = 0;
        std::uint16_t asid = 0;
        PageSize size = PageSize::Size4K;
        bool valid = false;
    };

    /** Key the recall profiler by 4K VPN so its distance accounting is
     *  granule-independent (and unchanged for all-4K runs). */
    static std::uint64_t
    profileKeyOf(std::uint16_t asid, Addr vaddr)
    {
        return (static_cast<std::uint64_t>(asid) << 52) |
            pageNumber(vaddr);
    }

    std::uint32_t setOf(Addr vpn) const { return indexer_.index(vpn); }

    std::string name_;
    std::uint32_t sets_;
    SetIndexer indexer_;
    std::uint32_t ways_;
    Cycle latency_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 1;
    TlbStats stats_;
    /** Valid-entry count per granule; sizes with zero entries are
     *  skipped during lookup, so all-4K runs probe one set. */
    std::array<std::uint32_t, kNumPageSizes> sizeCount_ = {};
    std::unique_ptr<RecallProfiler> profiler_;
};

} // namespace tacsim

#endif // TACSIM_VM_TLB_HH
