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

    /** Demands parked in pending_ because their core hit its MSHR
     *  quota (arbitration on; distinct from mshrFullEvents). */
    std::uint64_t arbMshrDeferred = 0;
    /** Lookups pushed to the next window by the bandwidth bucket. */
    std::uint64_t arbBwDeferred = 0;

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

/**
 * Per-core fairness arbitration at a shared cache (the LLC). cores == 0
 * disables everything (private levels). With arbitration on, a request's
 * owning core is cpu / smt; unattributed traffic (self-issued
 * prefetches, writebacks) is exempt. Two mechanisms, both deterministic:
 *
 *  - MSHR quota: a core may hold at most mshrQuota live MSHRs; excess
 *    demands park in the pending queue until one of the core's fills
 *    returns (prefetch children are already throttled by the demand
 *    reserve, so quota applies to demands only).
 *  - Bandwidth tokens: each core gets bwTokens demand lookups per
 *    bwWindow cycles; an over-budget lookup is rescheduled at the next
 *    window boundary (arrival order preserved by the event queue).
 */
struct CacheArbParams
{
    std::uint32_t cores = 0; ///< sharers; 0 = arbitration off
    std::uint32_t smt = 1;   ///< hardware threads per core (cpu mapping)
    std::uint32_t mshrQuota = 0; ///< live MSHRs per core; 0 = no cap
    std::uint32_t bwTokens = 0;  ///< lookups per core per window; 0 = off
    Cycle bwWindow = 64;

    bool
    quotaOn() const
    {
        return cores > 0 && mshrQuota > 0;
    }
    bool
    bwOn() const
    {
        return cores > 0 && bwTokens > 0;
    }
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

    /** Low address bits below the set-index field. An LLC slice in a
     *  2^k-way interleave indexes above the slice-select bits
     *  (kBlockBits + k), so sibling slices never alias sets. */
    unsigned setShift = kBlockBits;

    CacheArbParams arb; ///< per-core fairness (shared LLC only)

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
     * Walk tags, MSHRs, the pending queue, per-class statistics, the
     * arbitration counters and the replacement policy's state, throwing
     * verify::InvariantViolation on the first structural inconsistency.
     * Intended to be called at quiescent points (between run-loop
     * iterations, at drain).
     */
    void checkInvariants() const;

    /** Mutable arbitration counters — verifier tests use these to seed
     *  deliberate corruption (counter drift, token over-spend). */
    std::uint32_t &
    arbMshrCountFor(std::uint32_t core)
    {
        return arbMshrsByCore_[core];
    }
    std::uint32_t &
    arbTokensFor(std::uint32_t core)
    {
        return arbTokens_[core];
    }

    static constexpr std::uint32_t kNoOwner = 0xffffffffu;

    /**
     * Save or restore the array contents, replacement-policy training
     * state and arbitration counters (tacsim-ckpt-v2). Only legal when
     * no miss is outstanding (post-quiesce): MSHRs and the pending queue
     * are never serialized. Attached prefetchers and recall profilers
     * are unsupported and make it throw.
     */
    void state(StateArchive &ar);

  private:
    struct MshrEntry
    {
        std::vector<MemRequestPtr> waiters;
        AccessInfo fillInfo;      ///< classification of the eventual fill
        bool demandWaiting = false;
        bool prefetchOnly = true;
        bool makeDirty = false;   ///< a store is waiting on this line
        PrefetchOrigin origin = PrefetchOrigin::None;
        /** Arbitration owner (core index); kNoOwner for unattributed
         *  traffic or when arbitration is off. */
        std::uint32_t owner = kNoOwner;
    };

    /** @p countStats is false when a request re-enters lookup after
     *  waiting in pending_: its access/miss was counted on first entry. */
    void lookup(const MemRequestPtr &req, bool countStats = true);
    void handleMiss(const MemRequestPtr &req, const AccessInfo &ai);
    /** Arbitration owner for @p req (kNoOwner when exempt). */
    std::uint32_t arbOwnerOf(const MemRequestPtr &req) const;
    /** True when the bandwidth bucket deferred @p req to the next
     *  window (the retry is already scheduled). */
    bool arbBwDefer(const MemRequestPtr &req);
    void forwardMiss(Addr blockAddr);
    void handleFill(Addr blockAddr, RespSource src);
    void installBlock(Addr blockAddr, const AccessInfo &ai, bool dirty);
    void evictWay(std::uint32_t set, std::uint32_t way);
    void drainPending();

    int findWay(std::uint32_t set, Addr blockAddr) const;

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
    AddrMap<MshrEntry> mshrs_;  ///< keyed by block address
    /** Emptied waiter vectors of filled MSHRs, capacity kept: a new
     *  MSHR takes one, so steady-state misses allocate nothing. */
    std::vector<std::vector<MemRequestPtr>> spareWaiters_;
    std::deque<MemRequestPtr> pending_; ///< waiting for a free MSHR
    CacheStats stats_;

    // Arbitration state (sized to arb.cores; empty when off).
    std::vector<std::uint32_t> arbMshrsByCore_; ///< live MSHRs per core
    std::vector<std::uint32_t> arbTokens_; ///< lookups spent this window
    Cycle arbWindow_ = 0; ///< window index arbTokens_ covers
};

} // namespace tacsim

#endif // TACSIM_CACHE_CACHE_HH
