#include "cache/repl/ship.hh"

#include <sstream>

#include "sim/verify.hh"

namespace tacsim {

ShipPolicy::ShipPolicy(std::uint32_t sets, std::uint32_t ways,
                       ReplOpts opts)
    : RripBase(sets, ways, opts),
      shct_(kShctSize, 1),
      blockSig_(static_cast<std::size_t>(sets) * ways, 0),
      blockOutcome_(static_cast<std::size_t>(sets) * ways, 0)
{}

void
ShipPolicy::onFill(std::uint32_t set, std::uint32_t way,
                   const AccessInfo &ai)
{
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    const std::uint32_t sig = predictorIndex(ai, opts_, kShctSize);
    blockSig_[idx] = sig;
    blockOutcome_[idx] = 0;

    // SHiP insertion: predicted-dead signatures insert distant.
    std::uint8_t base = shct_[sig] == 0 ? kMaxRrpv : kMaxRrpv - 1;
    setRrpv(set, way, overrideInsertion(ai, base));
}

void
ShipPolicy::onHit(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &ai)
{
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    if (!blockOutcome_[idx]) {
        blockOutcome_[idx] = 1;
        std::uint8_t &ctr = shct_[blockSig_[idx]];
        if (ctr < kCounterMax)
            ++ctr;
    }
    RripBase::onHit(set, way, ai);
}

void
ShipPolicy::onEvict(std::uint32_t set, std::uint32_t way,
                    const BlockMeta &meta)
{
    if (!meta.valid)
        return;
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    if (!blockOutcome_[idx]) {
        std::uint8_t &ctr = shct_[blockSig_[idx]];
        if (ctr > 0)
            --ctr;
    }
}

void
ShipPolicy::checkInvariants(const std::string &owner) const
{
    RripBase::checkInvariants(owner);
    const std::string who = owner + "/" + name();
    for (std::uint32_t sig = 0; sig < kShctSize; ++sig) {
        if (shct_[sig] > kCounterMax) {
            std::ostringstream os;
            os << "shct[" << sig << "]=" << static_cast<int>(shct_[sig])
               << " exceeds " << static_cast<int>(kCounterMax);
            throw verify::InvariantViolation(who, "shct-range", os.str());
        }
    }
    for (std::uint32_t set = 0; set < sets_; ++set) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::size_t idx =
                static_cast<std::size_t>(set) * ways_ + w;
            if (blockSig_[idx] >= kShctSize)
                throw verify::InvariantViolation(
                    who, "sig-range", "training signature out of table",
                    set, w);
            if (blockOutcome_[idx] > 1)
                throw verify::InvariantViolation(
                    who, "outcome-range", "outcome bit not 0/1", set, w);
        }
    }
}

std::string
ShipPolicy::name() const
{
    if (opts_.translationRrpv0 && opts_.newSignatures)
        return "T-SHiP";
    if (opts_.newSignatures)
        return "SHiP-NewSign";
    if (opts_.translationRrpv0)
        return "SHiP-TR0";
    return "SHiP";
}

} // namespace tacsim
