/**
 * @file
 * Abstract replacement policy interface and the option block that turns a
 * baseline policy into its translation-conscious variant.
 *
 * A policy is three sub-policies (paper §II-B): insertion (onFill),
 * promotion (onHit) and eviction (victim). Policies own whatever state
 * they need (RRPVs, SHCT, OPTgen...); the cache owns the tags.
 */

#ifndef TACSIM_CACHE_REPL_POLICY_HH
#define TACSIM_CACHE_REPL_POLICY_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/block.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace tacsim {

namespace obs {
class Registry;
} // namespace obs

/**
 * Flags layering the paper's enhancements on a baseline policy.
 *
 * All combinations are expressible so the ablations (Figs. 10, 12) fall
 * out of the same code:
 *  - T-DRRIP  = DRRIP  + translationRrpv0 + replayEvictFast
 *  - NewSign  = SHiP   + newSignatures
 *  - T-SHiP   = SHiP   + newSignatures + translationRrpv0
 *  - T-Hawkeye= Hawkeye+ newSignatures + translationRrpv0
 *  - Fig. 10 ablation = + replayRrpv0 (instead of replayEvictFast)
 */
struct ReplOpts
{
    /** Insert leaf-level translation fills with RRPV=0 / MRU. */
    bool translationRrpv0 = false;
    /** Insert replay-load fills with RRPV=max (dead-on-arrival). */
    bool replayEvictFast = false;
    /** Extend IP signatures with IsTranslation/IsReplay flag bits. */
    bool newSignatures = false;
    /** Ablation (paper Fig. 10): insert replays at RRPV=0 too. */
    bool replayRrpv0 = false;
};

/** The predictor entry @p ai trains (SHiP's SHCT, Hawkeye's predictor):
 *  its hashed IP masked to @p tableSize (a power of two). With
 *  newSignatures the key is (IP << 2) | IsTranslation | IsReplay << 1
 *  (paper §IV), so PTE, replay and non-replay blocks train apart. */
std::uint32_t predictorIndex(const AccessInfo &ai, const ReplOpts &opts,
                             std::uint32_t tableSize);

/** Replacement policy for one set-associative array. */
class ReplPolicy
{
  public:
    ReplPolicy(std::uint32_t sets, std::uint32_t ways, ReplOpts opts)
        : sets_(sets), ways_(ways), opts_(opts)
    {}
    virtual ~ReplPolicy() = default;

    /**
     * Choose the way to evict in @p set for incoming access @p ai.
     * @p blocks points at the set's `ways()` BlockMeta entries. Invalid
     * ways are chosen by the cache before this is consulted.
     */
    virtual std::uint32_t victim(std::uint32_t set, const AccessInfo &ai,
                                 const BlockMeta *blocks) = 0;

    /** Incoming block installed in (set, way). */
    virtual void onFill(std::uint32_t set, std::uint32_t way,
                        const AccessInfo &ai) = 0;

    /** Block in (set, way) was referenced. */
    virtual void onHit(std::uint32_t set, std::uint32_t way,
                       const AccessInfo &ai) = 0;

    /** Block in (set, way) is being evicted (for SHCT-style training). */
    virtual void onEvict(std::uint32_t set, std::uint32_t way,
                         const BlockMeta &meta)
    {
        (void)set; (void)way; (void)meta;
    }

    /**
     * Give the policy a chance to refuse allocation entirely (dead-block
     * bypass, CbPred-style). Default: always allocate.
     */
    virtual bool bypassFill(std::uint32_t set, const AccessInfo &ai)
    {
        (void)set; (void)ai;
        return false;
    }

    /**
     * Verify the policy's internal metadata: replacement state within
     * bounds (RRPVs, saturating counters), leader-set constituencies
     * disjoint, per-block training state well-formed. @p owner is the
     * owning cache's name, used to attribute violations. Throws
     * verify::InvariantViolation on the first inconsistency; the default
     * has nothing to verify.
     */
    virtual void checkInvariants(const std::string &owner) const
    {
        (void)owner;
    }

    virtual std::string name() const = 0;

    /**
     * Register observable state under "@p prefix.<slug>." (see
     * metricSlug): set-dueling PSEL, way quotas, bypass counters.
     * Training tables (SHCT, RRPVs) are not metrics. Default: nothing.
     */
    virtual void registerMetrics(obs::Registry &registry,
                                 const std::string &prefix)
    {
        (void)registry;
        (void)prefix;
    }

    /**
     * Zero statistic counters (not training state — set-dueling and
     * predictor tables persist across a stats reset just like cache
     * contents do). Default: nothing to reset.
     */
    virtual void resetStats() {}

    /**
     * Save or restore the policy's training state (tacsim-ckpt-v2):
     * RRPVs, SHCT, set-dueling PSEL, randomized-victim RNG. The default
     * throws so a policy without support (Hawkeye's OPTgen history,
     * dead-block and CSALT wrappers) fails a checkpoint attempt loudly
     * instead of restoring with silently-reset predictors.
     */
    virtual void
    state(StateArchive &)
    {
        throw std::runtime_error("checkpoint: replacement policy '" +
                                 name() + "' does not support save/restore");
    }

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    const ReplOpts &opts() const { return opts_; }

  protected:
    std::uint32_t sets_;
    std::uint32_t ways_;
    ReplOpts opts_;
};

/** Baseline policy families selectable from the factory. */
enum class PolicyKind
{
    LRU,
    Random,
    SRRIP,
    BRRIP,
    DRRIP,
    SHiP,
    Hawkeye,
};

/** Human-readable policy-kind name ("DRRIP", ...). */
std::string policyKindName(PolicyKind kind);

/** Metric-name slug of a policy name: lowercase alphanumerics only
 *  ("T-DRRIP" -> "tdrrip", "SHiP" -> "ship"). */
std::string metricSlug(const std::string &name);

/** Build a policy instance. */
std::unique_ptr<ReplPolicy> makePolicy(PolicyKind kind, std::uint32_t sets,
                                       std::uint32_t ways,
                                       ReplOpts opts = {},
                                       std::uint64_t seed = 0x7ac51);

} // namespace tacsim

#endif // TACSIM_CACHE_REPL_POLICY_HH
