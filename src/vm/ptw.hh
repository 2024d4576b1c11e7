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
 * in flight, the rest queue. Walking allocates nothing in steady state:
 * in-flight walks live in a fixed walk file addressed by slot, a queued
 * walk is a small record in a ring, one index finds either for a merge,
 * and callbacks wait in pooled nodes.
 */

#ifndef TACSIM_VM_PTW_HH
#define TACSIM_VM_PTW_HH

#include <array>
#include <cstddef>
#include <cstdint>
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

    unsigned
    activeWalks() const
    {
        return static_cast<unsigned>(slots_.size() - freeSlots_.size());
    }

    /**
     * Verify walker invariants: every walk-file slot is either indexed
     * once or free (and a free slot holds no callbacks), every queued
     * walk is indexed once, the queue only backs up when the file is
     * full, every callback list is non-empty, acyclic and ends at its
     * tail, no pooled callback is lost, in-flight keys match their
     * slot (no walk starts below its mapping's leaf level), and PSC
     * state is well-formed. Throws verify::InvariantViolation.
     */
    void checkInvariants() const;

  private:
    /** Null link of the walk-file lists. */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** Most reads one walk issues: a nested 4K walk reads
     *  (gL + 1) * hL + gL, 35 with five-level tables. A slot's read
     *  list grows to its deepest walk once, then keeps its storage. */
    static constexpr std::size_t kMaxWalkReads =
        (kPtLevels + 1) * kPtLevels + kPtLevels;

    /** Walk-index values of queued walks: kQueued | sequence number.
     *  Any other value is a walk-file slot. */
    static constexpr std::uint64_t kQueued = std::uint64_t{1} << 63;

    /** Initial size of the queue ring; it doubles when full. */
    static constexpr std::size_t kInitialQueue = 16;

    /** One serial memory reference of a walk, precomputed at start. */
    struct PendingRead
    {
        Addr paddr = 0;
        Addr replayBlockPaddr = 0; ///< nonzero on the guest leaf read
        std::uint8_t ptLevel = 0;  ///< guest or host table level (1..5)
        bool isHost = false;
        bool leafPte = false; ///< the guest leaf PTE (ends translation)
    };

    /** One pooled walk callback. */
    struct CallbackNode
    {
        WalkCallback cb;
        std::uint32_t next = kNone; ///< next callback of the walk, or free
    };

    /** What a walk translates and whom it answers: all a queued walk
     *  holds, and the head of an active one. */
    struct WalkRequest
    {
        Addr vaddr = 0;
        Addr ip = 0;
        std::uint16_t asid = 0;
        std::uint16_t cpu = 0;
        /** Callbacks in arrival order: a FIFO of callbacks_ nodes
         *  threaded through their next links. */
        std::uint32_t firstCallback = kNone;
        std::uint32_t lastCallback = kNone;
    };

    /** One slot of the walk file. Slots never move: a walk names its
     *  slot from start to finish, and its read list keeps its storage
     *  from one walk to the next. */
    struct WalkSlot
    {
        WalkRequest req;
        PageTable::WalkResult info; ///< guest-dimension walk result
        unsigned startLevel = 0;    ///< first guest level actually read
        Cycle startedAt = 0;
        std::vector<PendingRead> reads; ///< serial reference list
        std::size_t nextRead = 0;
        Addr finalPaddr = 0;   ///< host-physical data address
        Addr fillBase = 0;     ///< STLB fill physical base
        PageSize fillSize = PageSize::Size4K; ///< STLB fill granule
        RespSource leafSource = RespSource::None;
    };

    std::uint64_t keyOf(std::uint16_t asid, Addr vaddr) const
    {
        return (static_cast<std::uint64_t>(asid) << 48) ^ pageNumber(vaddr);
    }

    /** The walk queued with sequence number @p seq. */
    WalkRequest &queued(std::uint64_t seq)
    {
        return queue_[seq & (queue_.size() - 1)];
    }
    const WalkRequest &queued(std::uint64_t seq) const
    {
        return queue_[seq & (queue_.size() - 1)];
    }

    /** Append @p cb to @p w's callbacks, in a pooled node. */
    void addCallback(WalkRequest &w, WalkCallback cb);
    /** Queue @p w behind the concurrency limit; returns its sequence
     *  number. */
    std::uint64_t enqueue(const WalkRequest &w);

    /** Start the walk whose request @p slot holds. */
    void startWalk(std::uint32_t slot);
    /** Append the host sub-walk @p h of @p gpa to @p ws's reads and
     *  fill the host PSCs from it (nested mode only). */
    void appendHostWalk(WalkSlot &ws, Addr gpa,
                        const PageTable::WalkResult &h);
    void issueNext(std::uint32_t slot);
    void readDone(std::uint32_t slot, RespSource source);
    void finishWalk(std::uint32_t slot);
    void drainQueue();

    /** Check one callback list: non-empty, links in range, no node
     *  reached twice across all lists (@p seen), a correct tail. */
    void checkCallbacks(const WalkRequest &w, std::vector<bool> &seen,
                        const std::string &ctx) const;

    /** Verifier tests (tests/test_verify.cc) seed corrupted walk-file
     *  state through this. */
    friend struct PtwTestAccess;

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

    /** The walk file: maxConcurrentWalks slots, addressed by index. */
    std::vector<WalkSlot> slots_;
    std::vector<std::uint32_t> freeSlots_; ///< stack of free slots
    /** Walks behind the concurrency limit: a ring of power-of-two size
     *  indexed by sequence number, oldest at queueHead_. */
    std::vector<WalkRequest> queue_;
    std::uint64_t queueHead_ = 0;
    std::uint64_t queueTail_ = 0; ///< sequence number of the next queued
    /** (asid, VPN) -> slot of the walk in flight, or kQueued | sequence
     *  number of the walk queued; merges find either in one probe. */
    AddrMap<std::uint64_t> walkIndex_;
    /** Callback pool; free nodes form a stack through their links. */
    std::vector<CallbackNode> callbacks_;
    std::uint32_t freeCallbacks_ = kNone;
    PtwStats stats_;
};

} // namespace tacsim

#endif // TACSIM_VM_PTW_HH
