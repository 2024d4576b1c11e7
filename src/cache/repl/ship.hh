/**
 * @file
 * SHiP-PC (Wu et al., MICRO'11): signature-based hit prediction on top of
 * SRRIP eviction/promotion, plus the paper's NewSign and T-SHiP variants.
 *
 * NewSign (paper §IV): the training signature (predictorIndex) is
 * extended with the IsTranslation and IsReplay flags so PTE blocks,
 * replay blocks and non-replay blocks train disjoint SHCT entries:
 *
 *     signature_translations = IP << IsTranslation
 *     signature_replayloads  = IP << IsReplay + IsTranslation
 *
 * The flag bits are folded into the SHCT hash, so the table size (and
 * hence storage) is unchanged — this is the paper's zero-storage claim.
 *
 * T-SHiP additionally inserts leaf-level translations at RRPV=0.
 */

#ifndef TACSIM_CACHE_REPL_SHIP_HH
#define TACSIM_CACHE_REPL_SHIP_HH

#include <vector>

#include "cache/repl/rrip.hh"

namespace tacsim {

class ShipPolicy : public RripBase
{
  public:
    static constexpr std::uint32_t kShctBits = 14;
    static constexpr std::uint32_t kShctSize = 1u << kShctBits;
    static constexpr std::uint8_t kCounterMax = 7; // 3-bit counters

    ShipPolicy(std::uint32_t sets, std::uint32_t ways, ReplOpts opts);

    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &ai) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &ai) override;
    void onEvict(std::uint32_t set, std::uint32_t way,
                 const BlockMeta &meta) override;
    std::string name() const override;
    void checkInvariants(const std::string &owner) const override;

    std::uint8_t shct(std::uint32_t sig) const { return shct_[sig]; }

  private:
    std::vector<std::uint8_t> shct_;
    /** Per-block training state (signature of filling access + outcome). */
    std::vector<std::uint32_t> blockSig_;
    std::vector<std::uint8_t> blockOutcome_; // 1 = reused since fill
};

} // namespace tacsim

#endif // TACSIM_CACHE_REPL_SHIP_HH
