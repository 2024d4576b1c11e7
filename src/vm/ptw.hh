/**
 * @file
 * Hardware page-table walker. On an STLB miss the walker probes the PSCs
 * (one cycle, parallel search), then reads the remaining page-table
 * levels serially through the data cache hierarchy — each read is a
 * Translation request tagged with its level, so caches can apply the
 * paper's translation-conscious policies and trigger ATP on leaf hits.
 *
 * The walker carries the IsLeafLevel flag and the upper six bits of the
 * page offset so a leaf hit knows which data line the pending demand load
 * needs (paper §IV) — in the model this is replayBlockPaddr.
 *
 * Huge pages terminate the walk early: a 2M mapping's leaf PTE lives at
 * level 2, a 1G mapping's at level 3, so those walks issue fewer reads
 * and never touch the skipped lower-level tables.
 *
 * Nested (virtualized) mode turns each walk into a 2D guest×host walk:
 * every guest PTE address is guest-physical and must itself be translated
 * by a host walk before the guest PTE can be read, and the final guest
 * data address needs one more host walk — up to (gL+1)*hL + gL memory
 * references per STLB miss. The walker owns a second set of PSCs for the
 * host dimension. Host-PSC lookups and fills are applied in sub-walk
 * order when the walk starts (reads within a walk are serial, so each
 * sub-walk would indeed observe its predecessors' fills; only overlap
 * between concurrent walks is approximated).
 *
 * Walks to the same (asid, VPN) merge; a bounded number of walks may be
 * in flight, the rest queue.
 */

#ifndef TACSIM_VM_PTW_HH
#define TACSIM_VM_PTW_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/addr_map.hh"
#include "common/event_queue.hh"
#include "common/histogram.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "vm/page_table.hh"
#include "vm/psc.hh"
#include "vm/tlb.hh"

namespace tacsim {

namespace obs {
class ChromeTracer;
class Registry;
} // namespace obs

/** ASID the walker uses for the single host address space. */
constexpr std::uint16_t kHostAsid = 0;

struct PtwStats
{
    std::uint64_t walks = 0;
    std::uint64_t merged = 0;
    std::uint64_t queued = 0;
    /** Memory accesses issued per guest page-table level (index l-1). */
    std::array<std::uint64_t, kPtLevels> levelReads = {};
    /** Memory accesses issued per *host* level (nested mode only). */
    std::array<std::uint64_t, kPtLevels> hostLevelReads = {};
    /** Host sub-walks performed (nested mode only). */
    std::uint64_t hostWalks = 0;
    /** Finished walks by the granule installed in the STLB. */
    std::array<std::uint64_t, kNumPageSizes> walksBySize = {};
    /** Where the *leaf* PTE read was serviced. */
    std::uint64_t leafFromL1D = 0;
    std::uint64_t leafFromL2C = 0;
    std::uint64_t leafFromLLC = 0;
    std::uint64_t leafFromDram = 0;
    std::uint64_t leafFromIdeal = 0;
    Histogram walkLatency{std::vector<std::uint64_t>{20, 50, 100, 200,
                                                     500}};
    /** Memory references per walk (the nested-walk depth histogram:
     *  bare-metal 4K walks issue <= 5, nested walks up to 35). */
    Histogram walkRefs{std::vector<std::uint64_t>{1, 2, 3, 4, 5, 8, 12,
                                                  16, 20, 24, 28}};

    void reset() { *this = PtwStats{}; }
};

/** Walker configuration. */
struct PtwParams
{
    unsigned maxConcurrentWalks = 4;
    std::array<std::uint32_t, 4> pscSizes = {32, 8, 4, 2};
    Cycle pscLatency = 1;
};

class PageTableWalker
{
  public:
    /** Called when translation finishes: host-physical data address,
     *  installed translation granule, and leaf PTE response source. */
    using WalkCallback = std::function<void(Addr dataPaddr, PageSize ps,
                                            RespSource leafSource)>;

    using Params = PtwParams;

    /** @p name labels invariant reports: "PTW" itself, "PTW/PSCL2"
     *  and "PTW/host-PSCL2" for its guest and host PSCs. */
    PageTableWalker(EventQueue &eq, MemDevice *port, Params p = Params{},
                    std::string name = "PTW");

    const std::string &name() const { return name_; }

    /** Register the page table serving @p asid. */
    void addAddressSpace(std::uint16_t asid, PageTable *pt);

    /** STLB this walker fills on completion (may be null). */
    void setStlb(Tlb *stlb) { stlb_ = stlb; }

    /**
     * Enable nested (2D) translation: every registered page table is
     * treated as guest-physical, translated through @p host. Call before
     * registerMetrics(). Pass nullptr to disable.
     */
    void setNestedTranslation(PageTable *host);

    bool nested() const { return hostTable_ != nullptr; }

    /**
     * Start (or merge into) a walk for @p vaddr.
     * @param ip instruction pointer of the triggering demand access
     * @param cpu hardware context id
     * @param cb invoked when the leaf PTE has been read
     */
    void walk(std::uint16_t asid, Addr vaddr, Addr ip, std::uint16_t cpu,
              WalkCallback cb);

    const PtwStats &stats() const { return stats_; }
    void resetStats();
    const PscStats &pscStats() const { return pscs_.stats(); }
    PagingStructureCaches &pscs() { return pscs_; }

    /** Host-dimension PSCs (null unless nested mode is enabled). */
    PagingStructureCaches *hostPscs() { return hostPscs_.get(); }

    /** Register walker + PSC counters under "@p prefix.", plus the
     *  reset hook. */
    void registerMetrics(obs::Registry &registry,
                         const std::string &prefix);

    /** Attach a Chrome tracer; each finished walk is emitted as a span
     *  on @p track. Pass nullptr to detach. */
    void setTracer(obs::ChromeTracer *tracer, std::uint32_t track);

    unsigned activeWalks() const { return active_; }

    /**
     * Verify walker invariants: active count matches the in-flight map,
     * concurrency bound respected, queue only backs up when saturated,
     * in-flight keys consistent with their walk state (including that no
     * walk starts below its mapping's leaf level), and PSC state
     * well-formed. Throws verify::InvariantViolation.
     */
    void checkInvariants() const;

  private:
    /** One serial memory reference of a walk, precomputed at start. */
    struct PendingRead
    {
        Addr paddr = 0;
        Addr replayBlockPaddr = 0; ///< nonzero on the guest leaf read
        std::uint8_t ptLevel = 0;  ///< guest or host table level (1..5)
        bool isHost = false;
        bool leafPte = false; ///< the guest leaf PTE (ends translation)
    };

    struct WalkState
    {
        std::uint16_t asid;
        Addr vaddr;
        Addr ip;
        std::uint16_t cpu;
        PageTable::WalkResult info; ///< guest-dimension walk result
        unsigned startLevel;        ///< first guest level actually read
        Cycle startedAt;
        std::vector<PendingRead> reads; ///< serial reference list
        std::size_t nextRead = 0;
        Addr finalPaddr = 0;   ///< host-physical data address
        Addr fillBase = 0;     ///< STLB fill physical base
        PageSize fillSize = PageSize::Size4K; ///< STLB fill granule
        RespSource leafSource = RespSource::None;
        std::vector<WalkCallback> callbacks;
    };

    std::uint64_t keyOf(std::uint16_t asid, Addr vaddr) const
    {
        return (static_cast<std::uint64_t>(asid) << 48) ^ pageNumber(vaddr);
    }

    void startWalk(std::unique_ptr<WalkState> ws);
    /** Append the host sub-walk @p h of @p gpa to ws->reads and fill
     *  the host PSCs from it (nested mode only). */
    void appendHostWalk(WalkState &ws, Addr gpa,
                        const PageTable::WalkResult &h);
    void issueNext(std::shared_ptr<WalkState> ws);
    void finishWalk(const std::shared_ptr<WalkState> &ws);
    void drainQueue();

    EventQueue &eq_;
    MemDevice *port_;
    Params params_;
    std::string name_;
    PagingStructureCaches pscs_;
    Tlb *stlb_ = nullptr;

    PageTable *hostTable_ = nullptr; ///< non-null = nested 2D mode
    std::unique_ptr<PagingStructureCaches> hostPscs_;

    obs::ChromeTracer *tracer_ = nullptr; ///< null = tracing disabled
    std::uint32_t track_ = 0;
    std::uint32_t walkNameId_ = 0;

    /** Page table per ASID. A handful of entries probed once per walk:
     *  a flat array beats a node-based map (no hashing, no chase). */
    std::vector<std::pair<std::uint16_t, PageTable *>> spaces_;
    AddrMap<std::shared_ptr<WalkState>> inflight_;
    std::deque<std::unique_ptr<WalkState>> queue_;
    unsigned active_ = 0;
    PtwStats stats_;
};

} // namespace tacsim

#endif // TACSIM_VM_PTW_HH
