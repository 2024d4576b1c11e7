/**
 * @file
 * Hawkeye (Jain & Lin, ISCA'16): learns from Belady's OPT on sampled sets
 * via OPTgen occupancy vectors and predicts per-PC cache friendliness.
 * Includes the paper's T-Hawkeye / NewSign variants through ReplOpts.
 *
 * Structure mirrors the CRC-2 reference release: a sampler of ~64 sets
 * records (address, time, PC) triples; OPTgen replays each reuse interval
 * against an occupancy vector of the set's capacity to decide whether OPT
 * would have hit, training a 3-bit per-PC counter up or down. Insertions
 * predicted cache-friendly get RRPV=0 (and age the rest of the set);
 * cache-averse insertions get RRPV=7. Evicting a friendly block detrains
 * the PC that last touched it.
 */

#ifndef TACSIM_CACHE_REPL_HAWKEYE_HH
#define TACSIM_CACHE_REPL_HAWKEYE_HH

#include <unordered_map>
#include <vector>

#include "cache/repl/policy.hh"

namespace tacsim {

class HawkeyePolicy : public ReplPolicy
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 7; // 3-bit RRPV
    static constexpr std::uint32_t kPredBits = 13;
    static constexpr std::uint32_t kPredSize = 1u << kPredBits;
    static constexpr std::uint8_t kCtrMax = 7;
    static constexpr std::uint8_t kFriendlyThreshold = 4;
    static constexpr std::uint32_t kTargetSampledSets = 64;

    HawkeyePolicy(std::uint32_t sets, std::uint32_t ways, ReplOpts opts);

    std::uint32_t victim(std::uint32_t set, const AccessInfo &ai,
                         const BlockMeta *blocks) override;
    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &ai) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &ai) override;
    void onEvict(std::uint32_t set, std::uint32_t way,
                 const BlockMeta &meta) override;
    std::string name() const override;
    void checkInvariants(const std::string &owner) const override;

    /** Predictor counter for a signature — exposed for tests. */
    std::uint8_t predictorCounter(std::uint32_t idx) const
    {
        return pred_[idx];
    }

  private:
    struct SampledSet
    {
        std::uint64_t clock = 0;
        std::vector<std::uint8_t> occupancy; ///< circular, size history
        struct Entry
        {
            Addr block = 0;
            std::uint64_t lastTime = 0;
            std::uint32_t lastSig = 0;
            bool valid = false;
        };
        std::vector<Entry> entries;
    };

    bool isSampled(std::uint32_t set) const
    {
        return set % sampleStride_ == 0;
    }

    /** OPTgen training on an access to a sampled set. */
    void train(std::uint32_t set, const AccessInfo &ai);

    void trainUp(std::uint32_t sig);
    void trainDown(std::uint32_t sig);
    bool friendly(std::uint32_t sig) const
    {
        return pred_[sig] >= kFriendlyThreshold;
    }

    void touch(std::uint32_t set, std::uint32_t way, const AccessInfo &ai,
               bool isFill);

    std::uint32_t sampleStride_;
    std::uint32_t history_; ///< OPTgen window: 8 * ways

    std::vector<std::uint8_t> pred_;
    std::vector<std::uint8_t> rrpv_;
    std::vector<std::uint32_t> blockSig_;   ///< last-touching signature
    std::vector<std::uint8_t> blockFriendly_;
    // tacsim-lint: allow(hot-path-container) sparse map over ~64 sampled sets, touched only on sampled-set accesses and only by keyed lookup
    std::unordered_map<std::uint32_t, SampledSet> samples_;
};

} // namespace tacsim

#endif // TACSIM_CACHE_REPL_HAWKEYE_HH
