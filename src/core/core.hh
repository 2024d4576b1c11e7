/**
 * @file
 * Out-of-order core model: a 352-entry ROB with bounded dispatch and
 * retire width, load/store issue through the DTLB -> STLB -> page-table
 * walker path, register dependences for pointer chasing, and — central to
 * the paper — per-cycle attribution of ROB-head stalls to (T) outstanding
 * translations after an STLB miss, (R) outstanding replay-load data, or
 * (N) everything else (Figs. 1 and 16).
 *
 * Fidelity notes (see DESIGN.md §5): dispatch is in-order at issue-width,
 * non-memory ops complete immediately (retire width bounds their IPC),
 * stores complete when their translation resolves and write back in the
 * background; the front-end is ideal. These are the standard
 * trace-driven simplifications; the mechanisms under study act purely on
 * the memory hierarchy.
 */

#ifndef TACSIM_CORE_CORE_HH
#define TACSIM_CORE_CORE_HH

#include <cstdint>
#include <vector>

#include "common/event_queue.hh"
#include "common/histogram.hh"
#include "common/types.hh"
#include "core/trace.hh"
#include "mem/request.hh"
#include "vm/ptw.hh"
#include "vm/tlb.hh"

namespace tacsim {

namespace obs {
class ChromeTracer;
class Registry;
} // namespace obs

struct CoreParams
{
    unsigned robSize = 352;
    unsigned issueWidth = 6;
    unsigned retireWidth = 4;
    std::uint16_t cpuId = 0;
    std::uint16_t asid = 0;
};

/** Why the ROB head could not retire this cycle. */
enum class StallKind : std::uint8_t
{
    None,
    Translation, ///< head is a demand access waiting on an STLB-miss walk
    Replay,      ///< head is a replay load waiting on its data
    Other,       ///< non-replay data wait or pipeline latency
};

struct CoreStats
{
    std::uint64_t retired = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t stlbMissAccesses = 0; ///< demand accesses that walked

    std::uint64_t stallCyclesT = 0; ///< ROB-head cycles waiting: walk
    std::uint64_t stallCyclesR = 0; ///< ROB-head cycles waiting: replay
    std::uint64_t stallCyclesN = 0; ///< ROB-head cycles waiting: other

    /** Per-retired-access head-stall distributions (paper Fig. 1). */
    Histogram stallPerWalk{std::vector<std::uint64_t>{10, 25, 50, 100}};
    Histogram stallPerReplay{
        std::vector<std::uint64_t>{50, 100, 200, 400}};
    Histogram stallPerNonReplay{
        std::vector<std::uint64_t>{10, 25, 50, 100}};

    void reset() { *this = CoreStats{}; }
};

class Core
{
  public:
    Core(CoreParams params, EventQueue &eq, Workload &workload, Tlb &dtlb,
         Tlb &stlb, PageTableWalker &ptw, MemDevice &l1d);

    /** Advance one cycle: retire, wake dependents, dispatch, issue. */
    void tick();

    /**
     * True when this core cannot change state until an external event
     * fires (ROB full, head incomplete). Used for cycle skipping.
     */
    bool blocked() const;

    /** Charge @p n skipped cycles of head stall (cycle-skip support). */
    void chargeSkippedCycles(Cycle n);

    std::uint64_t retired() const { return stats_.retired; }
    const CoreStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    const CoreParams &params() const { return params_; }

    /** Register retirement/stall counters and histograms under
     *  "@p prefix.", plus the reset hook. */
    void registerMetrics(obs::Registry &registry,
                         const std::string &prefix);

    /** Attach a Chrome tracer; every replay load's issue-to-data window
     *  is emitted as a span on @p track. Pass nullptr to detach. */
    void setTracer(obs::ChromeTracer *tracer, std::uint32_t track);

  private:
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    struct RobEntry
    {
        Addr ip = 0;
        Addr vaddr = 0;
        TraceRecord::Kind kind = TraceRecord::Kind::NonMem;
        bool complete = false;
        bool issued = false;
        bool stlbMiss = false;
        StallKind wait = StallKind::None;
        std::int64_t producerSeq = -1; ///< seq of producing load, -1 none
        /** Wake list: the entries waiting on this one, oldest first, as
         *  a FIFO threaded through their nextWaiter links. */
        std::uint64_t firstWaiter = kNoSeq;
        std::uint64_t lastWaiter = kNoSeq;
        /** Next entry waiting on this entry's producer (kNoSeq = last). */
        std::uint64_t nextWaiter = kNoSeq;
        Cycle tStall = 0;
        Cycle rStall = 0;
        Cycle nStall = 0;
    };

    RobEntry &entryFor(std::uint64_t seq) { return rob_[seq & robMask_]; }

    /** Full at robSize entries, whatever the ring's storage rounds to. */
    bool robFull() const { return count_ == params_.robSize; }
    RobEntry &head() { return rob_[headSeq_ & robMask_]; }
    const RobEntry &head() const { return rob_[headSeq_ & robMask_]; }

    StallKind classifyHead() const;
    void chargeHeadStall(Cycle n);
    void retireHead();
    void dispatchOne();
    void tryIssue(std::uint64_t seq);
    void issueMemOp(std::uint64_t seq);
    void startDataAccess(std::uint64_t seq, Addr paddr, bool replay,
                         PageSize ps = PageSize::Size4K);
    void completeEntry(std::uint64_t seq);
    void wakeDependents(std::uint64_t producerSeq);

    CoreParams params_;
    EventQueue &eq_;
    Workload &workload_;
    Tlb &dtlb_;
    Tlb &stlb_;
    PageTableWalker &ptw_;
    MemDevice &l1d_;

    /** The ROB ring. Storage rounds robSize up to a power of two so a
     *  sequence number maps to its slot with a mask, not a division;
     *  at most robSize entries are ever in flight. */
    std::vector<RobEntry> rob_;
    std::uint64_t robMask_;
    std::uint64_t headSeq_ = 0; ///< sequence number of the ROB head
    std::uint64_t nextSeq_ = 0; ///< next sequence number to dispatch
    unsigned count_ = 0;

    std::int64_t lastLoadSeq_ = -1;

    obs::ChromeTracer *tracer_ = nullptr; ///< null = tracing disabled
    std::uint32_t track_ = 0;
    std::uint32_t replayLoadId_ = 0;

    CoreStats stats_;
};

} // namespace tacsim

#endif // TACSIM_CORE_CORE_HH
