#include "cache/repl/hawkeye.hh"

#include <algorithm>
#include <sstream>

#include "sim/verify.hh"

namespace tacsim {

HawkeyePolicy::HawkeyePolicy(std::uint32_t sets, std::uint32_t ways,
                             ReplOpts opts)
    : ReplPolicy(sets, ways, opts),
      sampleStride_(std::max(1u, sets / kTargetSampledSets)),
      history_(8 * ways),
      pred_(kPredSize, kFriendlyThreshold), // weakly friendly at reset
      rrpv_(static_cast<std::size_t>(sets) * ways, kMaxRrpv),
      blockSig_(static_cast<std::size_t>(sets) * ways, 0),
      blockFriendly_(static_cast<std::size_t>(sets) * ways, 0)
{}

void
HawkeyePolicy::trainUp(std::uint32_t sig)
{
    if (pred_[sig] < kCtrMax)
        ++pred_[sig];
}

void
HawkeyePolicy::trainDown(std::uint32_t sig)
{
    if (pred_[sig] > 0)
        --pred_[sig];
}

void
HawkeyePolicy::train(std::uint32_t set, const AccessInfo &ai)
{
    SampledSet &ss = samples_[set];
    if (ss.occupancy.empty()) {
        ss.occupancy.assign(history_, 0);
        ss.entries.resize(history_);
    }

    const std::uint64_t t = ss.clock++;
    ss.occupancy[t % history_] = 0; // recycle the oldest quantum

    // Look for the previous access to this block in the sampler.
    SampledSet::Entry *match = nullptr;
    SampledSet::Entry *oldest = &ss.entries[0];
    for (auto &e : ss.entries) {
        if (e.valid && e.block == ai.blockAddr) {
            match = &e;
            break;
        }
        if (!e.valid) {
            oldest = &e;
        } else if (oldest->valid && e.lastTime < oldest->lastTime) {
            oldest = &e;
        }
    }

    if (match) {
        const std::uint64_t t0 = match->lastTime;
        if (t - t0 < history_) {
            // Would OPT have kept this line across [t0, t)?
            bool fits = true;
            for (std::uint64_t i = t0; i < t; ++i) {
                if (ss.occupancy[i % history_] >= ways_) {
                    fits = false;
                    break;
                }
            }
            if (fits) {
                for (std::uint64_t i = t0; i < t; ++i)
                    ++ss.occupancy[i % history_];
                trainUp(match->lastSig);
            } else {
                trainDown(match->lastSig);
            }
        } else {
            // Reuse distance beyond the OPTgen window: OPT would miss.
            trainDown(match->lastSig);
        }
        match->lastTime = t;
        match->lastSig = predictorIndex(ai, opts_, kPredSize);
    } else {
        oldest->valid = true;
        oldest->block = ai.blockAddr;
        oldest->lastTime = t;
        oldest->lastSig = predictorIndex(ai, opts_, kPredSize);
    }
}

std::uint32_t
HawkeyePolicy::victim(std::uint32_t set, const AccessInfo &,
                      const BlockMeta *)
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    std::uint32_t v = 0;
    std::uint8_t worst = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const std::uint8_t r = rrpv_[base + w];
        if (r == kMaxRrpv)
            return w;
        if (r >= worst) {
            worst = r;
            v = w;
        }
    }
    // Evicting a predicted-friendly block means the predictor was wrong:
    // detrain the PC that last touched it.
    if (blockFriendly_[base + v])
        trainDown(blockSig_[base + v]);
    return v;
}

void
HawkeyePolicy::touch(std::uint32_t set, std::uint32_t way,
                     const AccessInfo &ai, bool isFill)
{
    if (isSampled(set) && ai.cat != BlockCat::Writeback)
        train(set, ai);

    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    const std::size_t idx = base + way;
    const std::uint32_t sig = predictorIndex(ai, opts_, kPredSize);
    bool isFriendly = friendly(sig);

    // Translation-conscious overrides (T-Hawkeye).
    if (ai.distantHint)
        isFriendly = false;
    else if (opts_.translationRrpv0 && ai.isLeafTranslation())
        isFriendly = true;
    else if (ai.isReplay && ai.cat == BlockCat::Replay) {
        if (opts_.replayRrpv0)
            isFriendly = true;
        else if (opts_.replayEvictFast)
            isFriendly = false;
    }

    blockSig_[idx] = sig;
    blockFriendly_[idx] = isFriendly ? 1 : 0;

    if (!isFriendly) {
        rrpv_[idx] = kMaxRrpv;
        return;
    }
    rrpv_[idx] = 0;
    if (isFill) {
        // Aging: make room for the new friendly line.
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (w != way && rrpv_[base + w] < kMaxRrpv - 1)
                ++rrpv_[base + w];
        }
    }
}

void
HawkeyePolicy::onFill(std::uint32_t set, std::uint32_t way,
                      const AccessInfo &ai)
{
    touch(set, way, ai, true);
}

void
HawkeyePolicy::onHit(std::uint32_t set, std::uint32_t way,
                     const AccessInfo &ai)
{
    touch(set, way, ai, false);
}

void
HawkeyePolicy::onEvict(std::uint32_t, std::uint32_t, const BlockMeta &)
{
    // Detraining happens in victim(); nothing extra on eviction.
}

void
HawkeyePolicy::checkInvariants(const std::string &owner) const
{
    const std::string who = owner + "/" + name();
    for (std::uint32_t sig = 0; sig < kPredSize; ++sig) {
        if (pred_[sig] > kCtrMax) {
            std::ostringstream os;
            os << "pred[" << sig << "]=" << static_cast<int>(pred_[sig])
               << " exceeds " << static_cast<int>(kCtrMax);
            throw verify::InvariantViolation(who, "pred-range", os.str());
        }
    }
    for (std::uint32_t set = 0; set < sets_; ++set) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::size_t idx =
                static_cast<std::size_t>(set) * ways_ + w;
            if (rrpv_[idx] > kMaxRrpv) {
                std::ostringstream os;
                os << "rrpv=" << static_cast<int>(rrpv_[idx])
                   << " exceeds max " << static_cast<int>(kMaxRrpv);
                throw verify::InvariantViolation(who, "rrpv-range",
                                                 os.str(), set, w);
            }
            if (blockSig_[idx] >= kPredSize)
                throw verify::InvariantViolation(
                    who, "sig-range", "training signature out of table",
                    set, w);
            if (blockFriendly_[idx] > 1)
                throw verify::InvariantViolation(
                    who, "friendly-range", "friendliness bit not 0/1",
                    set, w);
        }
    }
    // Sort the sampled-set keys so a violation always reports the
    // lowest offending set, independent of hash-table slot order.
    std::vector<std::uint32_t> sampledSets;
    sampledSets.reserve(samples_.size());
    for (const auto &[set, ss] : samples_) // tacsim-lint: allow(nondeterminism-hazard) key harvest only; the iteration below is over the sorted copy
        sampledSets.push_back(set);
    std::sort(sampledSets.begin(), sampledSets.end());
    for (const std::uint32_t set : sampledSets) {
        const SampledSet &ss = samples_.at(set);
        if (set >= sets_ || !isSampled(set)) {
            std::ostringstream os;
            os << "sampler holds non-sampled set " << set
               << " (stride " << sampleStride_ << ")";
            throw verify::InvariantViolation(who, "sample-set", os.str(),
                                             set);
        }
        for (std::size_t i = 0; i < ss.occupancy.size(); ++i) {
            if (ss.occupancy[i] > ways_) {
                std::ostringstream os;
                os << "occupancy[" << i << "]="
                   << static_cast<int>(ss.occupancy[i])
                   << " exceeds associativity " << ways_;
                throw verify::InvariantViolation(who, "optgen-occupancy",
                                                 os.str(), set);
            }
        }
    }
}

std::string
HawkeyePolicy::name() const
{
    if (opts_.translationRrpv0 && opts_.newSignatures)
        return "T-Hawkeye";
    if (opts_.newSignatures)
        return "Hawkeye-NewSign";
    return "Hawkeye";
}

} // namespace tacsim
