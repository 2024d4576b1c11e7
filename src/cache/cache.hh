/**
 * @file
 * Set-associative, non-blocking cache level with MSHRs, pluggable
 * replacement policy and prefetcher, ideal-hit modes (paper Fig. 2) and
 * the ATP trigger point (paper §IV).
 *
 * The cache is a MemDevice: requests arrive via access(), tag lookup is
 * charged the hit latency, misses allocate an MSHR and forward a child
 * request to the lower level, and fills install the block and complete
 * every merged waiter. Translation (PTW) traffic shares the arrays with
 * data, eight PTEs per 64B block, exactly as §II-A describes.
 */

#ifndef TACSIM_CACHE_CACHE_HH
#define TACSIM_CACHE_CACHE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cache/block.hh"
#include "cache/recall_profiler.hh"
#include "cache/repl/policy.hh"
#include "common/addr_map.hh"
#include "common/event_queue.hh"
#include "common/set_index.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "prefetch/prefetcher.hh"

namespace tacsim {

namespace obs {
class ChromeTracer;
class Registry;
} // namespace obs

/** Aggregate counters for one cache level, split by traffic class. */
struct CacheStats
{
    std::uint64_t accesses[kNumBlockCats] = {};
    std::uint64_t hits[kNumBlockCats] = {};
    std::uint64_t misses[kNumBlockCats] = {};

    std::uint64_t fills = 0;
    std::uint64_t bypassedFills = 0;
    std::uint64_t writebacksOut = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t mshrFullEvents = 0;

    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchDropped = 0;
    std::uint64_t prefetchUseful = 0;
    std::uint64_t prefetchLate = 0; ///< demand merged into prefetch MSHR
    std::uint64_t atpIssued = 0;
    std::uint64_t atpUseful = 0;
    std::uint64_t tempoUseful = 0;
    std::uint64_t idealGrants = 0;

    std::uint64_t
    at(const std::uint64_t (&a)[kNumBlockCats], BlockCat c) const
    {
        return a[static_cast<std::size_t>(c)];
    }

    std::uint64_t demandAccesses() const
    {
        return at(accesses, BlockCat::NonReplay) +
            at(accesses, BlockCat::Replay);
    }
    std::uint64_t demandMisses() const
    {
        return at(misses, BlockCat::NonReplay) +
            at(misses, BlockCat::Replay);
    }
    std::uint64_t translationAccesses() const
    {
        return at(accesses, BlockCat::PtLeaf) +
            at(accesses, BlockCat::PtUpper);
    }

    void reset() { *this = CacheStats{}; }
};

/** Construction parameters for a cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sets = 64;
    std::uint32_t ways = 8;
    Cycle latency = 4;          ///< tag+data access latency
    std::uint32_t mshrs = 16;
    std::uint32_t mshrReserveForDemand = 2; ///< prefetches may not take these
    RespSource level = RespSource::L1D;     ///< for response attribution

    bool idealTranslations = false; ///< Fig. 2 ideal mode for leaf PTEs
    bool idealReplays = false;      ///< Fig. 2 ideal mode for replay loads
    bool atp = false;               ///< enable the ATP trigger here
    bool profileRecall = false;     ///< attach a RecallProfiler
};

class Cache : public MemDevice, public PrefetchIssuer
{
  public:
    Cache(CacheParams params, EventQueue &eq, MemDevice *lower,
          std::unique_ptr<ReplPolicy> policy,
          std::unique_ptr<Prefetcher> prefetcher = nullptr);

    // MemDevice
    void access(const MemRequestPtr &req) override;
    const std::string &name() const override { return params_.name; }

    // PrefetchIssuer
    void issuePrefetch(Addr paddr, PrefetchOrigin origin,
                       Addr ip) override;

    /** True if the block containing @p paddr is resident. */
    bool contains(Addr paddr) const;

    const CacheStats &stats() const { return stats_; }

    /** Zero every statistic this level owns, including the recall
     *  profiler and the policy's stat counters. */
    void resetStats();

    /**
     * Register every counter/histogram under "@p prefix." and hand the
     * replacement policy ("@p prefix.repl") and prefetcher
     * ("@p prefix.pf") their sub-prefixes. Also installs the reset hook
     * so Registry::resetAll() covers this level.
     */
    void registerMetrics(obs::Registry &registry,
                         const std::string &prefix);

    /** Attach a Chrome tracer; MSHR occupancy is emitted as counter
     *  events on @p track. Pass nullptr to detach. */
    void setTracer(obs::ChromeTracer *tracer, std::uint32_t track);

    const CacheParams &params() const { return params_; }
    ReplPolicy &policy() { return *policy_; }

    const RecallProfiler *recallProfiler() const { return profiler_.get(); }

    std::uint32_t setIndex(Addr paddr) const
    {
        return indexer_.index(paddr);
    }

    /** Block metadata for tests/inspection; way may be invalid. */
    const BlockMeta &
    blockAt(std::uint32_t set, std::uint32_t way) const
    {
        return blocks_[static_cast<std::size_t>(set) * params_.ways + way];
    }

    /** Mutable block metadata — verifier tests use this to seed
     *  deliberate corruption (duplicate tags, stale eviction metadata). */
    BlockMeta &
    blockAt(std::uint32_t set, std::uint32_t way)
    {
        return blocks_[static_cast<std::size_t>(set) * params_.ways + way];
    }

    /**
     * Walk tags, MSHRs, the pending queue, per-class statistics and the
     * replacement policy's state, throwing verify::InvariantViolation
     * on the first structural inconsistency. Intended to be called at
     * quiescent points (between run-loop iterations, at drain).
     */
    void checkInvariants() const;

  private:
    /** One MSHR. Entries live in mshrFile_ and never move: a miss
     *  names its entry by slot index from allocation to fill. */
    struct MshrEntry
    {
        /** Waiters in arrival order: a FIFO threaded through their
         *  MemRequest::nextWaiter links. firstWaiter owns the list. */
        MemRequestPtr firstWaiter;
        MemRequest *lastWaiter = nullptr;
        /** Classification of the eventual fill; blockAddr is the
         *  entry's line. */
        AccessInfo fillInfo;
        bool demandWaiting = false; ///< false while only prefetches wait
        bool makeDirty = false;   ///< a store is waiting on this line
        PrefetchOrigin origin = PrefetchOrigin::None;

        /** Append @p req at the tail of the waiter list. */
        void addWaiter(const MemRequestPtr &req);
    };

    /** @p countStats is false when a request re-enters lookup after
     *  waiting in pending_: its access/miss was counted on first entry. */
    void lookup(const MemRequestPtr &req, bool countStats = true);
    void handleMiss(const MemRequestPtr &req, const AccessInfo &ai);
    void forwardMiss(std::uint32_t slot);
    void handleFill(std::uint32_t slot, RespSource src);
    void installBlock(Addr blockAddr, const AccessInfo &ai, bool dirty);
    void evictWay(std::uint32_t set, std::uint32_t way);
    void drainPending();

    int findWay(std::uint32_t set, Addr blockAddr) const;

    std::uint32_t
    liveMshrs() const
    {
        return params_.mshrs - static_cast<std::uint32_t>(freeMshrs_.size());
    }

    CacheParams params_;
    EventQueue &eq_;
    MemDevice *lower_;
    std::unique_ptr<ReplPolicy> policy_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::unique_ptr<RecallProfiler> profiler_;

    obs::ChromeTracer *tracer_ = nullptr; ///< null = tracing disabled
    std::uint32_t track_ = 0;
    std::uint32_t mshrNameId_ = 0;

    SetIndexer indexer_;
    std::vector<BlockMeta> blocks_;
    /** The MSHR file: params_.mshrs entries, addressed by slot. */
    std::vector<MshrEntry> mshrFile_;
    std::vector<std::uint32_t> freeMshrs_; ///< stack of free slots
    AddrMap<std::uint32_t> mshrSlots_;     ///< block address -> slot
    std::deque<MemRequestPtr> pending_; ///< waiting for a free MSHR
    CacheStats stats_;
};

} // namespace tacsim

#endif // TACSIM_CACHE_CACHE_HH
