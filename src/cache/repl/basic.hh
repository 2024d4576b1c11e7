/**
 * @file
 * Baseline recency policies: true LRU and Random replacement.
 */

#ifndef TACSIM_CACHE_REPL_BASIC_HH
#define TACSIM_CACHE_REPL_BASIC_HH

#include <vector>

#include "cache/repl/policy.hh"
#include "common/rng.hh"

namespace tacsim {

/**
 * True LRU with optional translation-conscious insertion: with
 * opts.translationRrpv0, leaf-translation fills go to MRU (default
 * behaviour anyway); with opts.replayEvictFast, replay fills go to LRU
 * position.
 */
class LruPolicy : public ReplPolicy
{
  public:
    LruPolicy(std::uint32_t sets, std::uint32_t ways, ReplOpts opts);

    std::uint32_t victim(std::uint32_t set, const AccessInfo &ai,
                         const BlockMeta *blocks) override;
    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &ai) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &ai) override;
    std::string name() const override { return "LRU"; }

  private:
    /** stamp_[set*ways+way]: larger = more recently used. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 1;
};

/** Uniform-random replacement (lower bound for comparisons). */
class RandomPolicy : public ReplPolicy
{
  public:
    RandomPolicy(std::uint32_t sets, std::uint32_t ways, ReplOpts opts,
                 std::uint64_t seed)
        : ReplPolicy(sets, ways, opts), rng_(seed)
    {}

    std::uint32_t
    victim(std::uint32_t, const AccessInfo &, const BlockMeta *) override
    {
        return static_cast<std::uint32_t>(rng_.range(ways_));
    }

    void onFill(std::uint32_t, std::uint32_t, const AccessInfo &) override
    {}
    void onHit(std::uint32_t, std::uint32_t, const AccessInfo &) override {}
    std::string name() const override { return "Random"; }

  private:
    Rng rng_;
};

} // namespace tacsim

#endif // TACSIM_CACHE_REPL_BASIC_HH
