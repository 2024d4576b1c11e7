/**
 * @file
 * The RRIP family (Jaleel et al., ISCA'10): SRRIP, BRRIP and set-dueling
 * DRRIP, plus the paper's translation-conscious T-DRRIP obtained through
 * ReplOpts.
 *
 * T-DRRIP (paper §IV, Fig. 9): leaf-level translation fills are inserted
 * with RRPV=0 (retain) and replay-load fills with RRPV=3 (evict first),
 * because >95% of replay blocks are dead on arrival. Promotion and
 * eviction are unchanged. The Fig. 10 ablation (replays also at RRPV=0)
 * is opts.replayRrpv0.
 */

#ifndef TACSIM_CACHE_REPL_RRIP_HH
#define TACSIM_CACHE_REPL_RRIP_HH

#include <vector>

#include "cache/repl/policy.hh"
#include "common/rng.hh"

namespace tacsim {

/** Shared RRPV machinery for the RRIP family. */
class RripBase : public ReplPolicy
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 3;

    RripBase(std::uint32_t sets, std::uint32_t ways, ReplOpts opts);

    std::uint32_t victim(std::uint32_t set, const AccessInfo &ai,
                         const BlockMeta *blocks) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &ai) override;
    void checkInvariants(const std::string &owner) const override;

    /** RRPV of (set, way) — exposed for tests. */
    std::uint8_t
    rrpv(std::uint32_t set, std::uint32_t way) const
    {
        return rrpv_[static_cast<std::size_t>(set) * ways_ + way];
    }

  protected:
    /**
     * Apply the translation/replay insertion overrides; returns the RRPV
     * to use, or @p base if no override applies.
     */
    std::uint8_t overrideInsertion(const AccessInfo &ai,
                                   std::uint8_t base) const;

    void
    setRrpv(std::uint32_t set, std::uint32_t way, std::uint8_t v)
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] = v;
    }

    std::vector<std::uint8_t> rrpv_;
};

/** Static RRIP: insert at long re-reference interval (RRPV=2). */
class SrripPolicy : public RripBase
{
  public:
    using RripBase::RripBase;

    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &ai) override;
    std::string name() const override { return "SRRIP"; }
};

/** Bimodal RRIP: insert at RRPV=3 except ~1/32 of fills at RRPV=2. */
class BrripPolicy : public RripBase
{
  public:
    BrripPolicy(std::uint32_t sets, std::uint32_t ways, ReplOpts opts,
                std::uint64_t seed)
        : RripBase(sets, ways, opts), rng_(seed)
    {}

    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &ai) override;
    std::string name() const override { return "BRRIP"; }

  private:
    Rng rng_;
};

/**
 * Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion with a
 * 10-bit PSEL counter. With translation-conscious ReplOpts this is the
 * paper's T-DRRIP.
 */
class DrripPolicy : public RripBase
{
  public:
    static constexpr unsigned kLeaderSets = 32;
    static constexpr int kPselMax = 1023;

    DrripPolicy(std::uint32_t sets, std::uint32_t ways, ReplOpts opts,
                std::uint64_t seed);

    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &ai) override;
    std::string name() const override;
    void registerMetrics(obs::Registry &registry,
                         const std::string &prefix) override;
    void checkInvariants(const std::string &owner) const override;

    /** Exposed for tests. */
    int psel() const { return psel_; }
    bool isSrripLeader(std::uint32_t set) const;
    bool isBrripLeader(std::uint32_t set) const;

  private:
    Rng rng_;
    int psel_ = kPselMax / 2;
    std::uint32_t leaderStride_;
};

} // namespace tacsim

#endif // TACSIM_CACHE_REPL_RRIP_HH
