#include "cache/repl/basic.hh"
#include "cache/repl/hawkeye.hh"
#include "cache/repl/policy.hh"
#include "cache/repl/rrip.hh"
#include "cache/repl/ship.hh"
#include "common/rng.hh"

namespace tacsim {

std::string
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LRU: return "LRU";
      case PolicyKind::Random: return "Random";
      case PolicyKind::SRRIP: return "SRRIP";
      case PolicyKind::BRRIP: return "BRRIP";
      case PolicyKind::DRRIP: return "DRRIP";
      case PolicyKind::SHiP: return "SHiP";
      case PolicyKind::Hawkeye: return "Hawkeye";
    }
    return "?";
}

std::string
metricSlug(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c >= 'A' && c <= 'Z')
            out += static_cast<char>(c - 'A' + 'a');
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out += c;
    }
    return out.empty() ? std::string("policy") : out;
}

std::uint32_t
predictorIndex(const AccessInfo &ai, const ReplOpts &opts,
               std::uint32_t tableSize)
{
    std::uint64_t key = ai.ip;
    if (opts.newSignatures)
        key = (ai.ip << 2) | (ai.isTranslation() ? 1u : 0u) |
            (ai.isReplay ? 2u : 0u);
    return static_cast<std::uint32_t>(hashMix(key) & (tableSize - 1));
}

std::unique_ptr<ReplPolicy>
makePolicy(PolicyKind kind, std::uint32_t sets, std::uint32_t ways,
           ReplOpts opts, std::uint64_t seed)
{
    switch (kind) {
      case PolicyKind::LRU:
        return std::make_unique<LruPolicy>(sets, ways, opts);
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(sets, ways, opts, seed);
      case PolicyKind::SRRIP:
        return std::make_unique<SrripPolicy>(sets, ways, opts);
      case PolicyKind::BRRIP:
        return std::make_unique<BrripPolicy>(sets, ways, opts, seed);
      case PolicyKind::DRRIP:
        return std::make_unique<DrripPolicy>(sets, ways, opts, seed);
      case PolicyKind::SHiP:
        return std::make_unique<ShipPolicy>(sets, ways, opts);
      case PolicyKind::Hawkeye:
        return std::make_unique<HawkeyePolicy>(sets, ways, opts);
    }
    return nullptr;
}

} // namespace tacsim
