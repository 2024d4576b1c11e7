/**
 * @file
 * Paging-structure caches (PSCs). PSCL_l caches level-l PTEs: given the
 * virtual-address bits that index levels kPtLevels..l, it returns the
 * physical frame of the level-(l-1) table, letting the walker skip the
 * upper levels. Four PSCs exist for a five-level table (PSCL5..PSCL2);
 * they are searched in parallel in one cycle, and the deepest hit wins
 * (paper §II-A, Table I: 2/4/8/32 entries).
 *
 * With huge pages a walk may terminate above level 1: a 2M mapping has
 * no level-1 table, so PSCL2 must never hold an entry for that region.
 * Each entry records the leaf level of the walk that installed it, which
 * the verifier uses to catch fills for skipped levels.
 */

#ifndef TACSIM_VM_PSC_HH
#define TACSIM_VM_PSC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tacsim {

struct PscStats
{
    /** hitsAtLevel[l-1]: lookups resolved by PSCL_l (l in 2..5). */
    std::array<std::uint64_t, kPtLevels + 1> hitsAtLevel = {};
    std::uint64_t lookups = 0;
    std::uint64_t fullMisses = 0;

    void reset() { *this = PscStats{}; }
};

/** The four PSCs of one walker, fully associative, LRU. */
class PagingStructureCaches
{
  public:
    /** Entry counts for PSCL2..PSCL5 (index 0 -> PSCL2). Invariant
     *  reports name PSCL_l as @p owner + "PSCL<l>", e.g.
     *  "PTW.1/host-PSCL2"; a standalone PSC's is plain "PSCL2". */
    explicit PagingStructureCaches(std::array<std::uint32_t, 4> sizes =
                                       {32, 8, 4, 2},
                                   Cycle latency = 1, std::string owner = "");

    /**
     * Find the deepest cached level for (asid, vaddr).
     *
     * @param nextTableFrame out: frame of the level-(startLevel) table to
     *        read first.
     * @return the level the walk should *start* at (1..kPtLevels). A
     *         return of kPtLevels means full walk from the root; a return
     *         of 1 means only the leaf PTE must be read (PSCL2 hit).
     *         For a huge-page mapping the walker clamps this to the
     *         mapping's leaf level.
     */
    unsigned lookup(std::uint16_t asid, Addr vaddr, Addr &nextTableFrame);

    /**
     * Fill PSCL_l with the level-l entry: tag = VA bits for levels >= l,
     * payload = frame of the level-(l-1) table. @p leafLevel is the leaf
     * level of the walk doing the fill; a fill at or below the leaf is
     * ignored (the child table does not exist).
     */
    void fill(std::uint16_t asid, Addr vaddr, unsigned level,
              Addr childTableFrame, unsigned leafLevel = 1);

    Cycle latency() const { return latency_; }
    const PscStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    void flush();

    /** Visit every valid entry as (level, asid, vaddr, frame, leafLevel);
     *  vaddr is the filling VA truncated to the level's coverage. */
    void forEachEntry(
        const std::function<void(unsigned, std::uint16_t, Addr, Addr,
                                 unsigned)> &fn) const;

    /** Verify per-PSC invariants: unique valid tags, LRU stamps behind
     *  the clock, page-aligned frames, tags consistent with the recorded
     *  VA, and no entry at or below its walk's leaf level.
     *  Throws verify::InvariantViolation. */
    void checkInvariants() const;

    /** Raw entry write bypassing fill()'s filters — verifier tests use
     *  this to seed corrupted state (e.g. a PSCL2 entry for a 2M leaf). */
    void pokeForTest(unsigned level, std::uint32_t index,
                     std::uint16_t asid, Addr vaddr, Addr frame,
                     unsigned leafLevel = 1);

    /** Tag for (asid, vaddr) at @p level — exposed for tests. */
    static std::uint64_t
    tagOf(std::uint16_t asid, Addr vaddr, unsigned level)
    {
        const Addr vpnBits =
            vaddr >> (kPageBits + (level - 1) * kPtIndexBits);
        return (static_cast<std::uint64_t>(asid) << 48) ^ vpnBits;
    }

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        Addr frame = 0;
        /** Filling VA truncated to this level's coverage (for verify). */
        Addr va = 0;
        std::uint64_t lru = 0;
        std::uint16_t asid = 0;
        std::uint8_t leafLevel = 1; ///< leaf level of the filling walk
        bool valid = false;
    };

    /** caches_[l-2] holds PSCL_l. */
    std::array<std::vector<Entry>, 4> caches_;
    Cycle latency_;
    std::string owner_; ///< prefix of the invariant-report names
    std::uint64_t clock_ = 1;
    PscStats stats_;
};

} // namespace tacsim

#endif // TACSIM_VM_PSC_HH
