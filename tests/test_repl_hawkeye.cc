/**
 * @file
 * Unit tests for Hawkeye: OPTgen-based training on sampled sets,
 * friendly/averse insertion, aging, eviction detraining, and the
 * T-Hawkeye overrides.
 */

#include <gtest/gtest.h>

#include "cache/repl/hawkeye.hh"

namespace tacsim {
namespace {

AccessInfo
access(Addr block, Addr ip)
{
    AccessInfo ai;
    ai.blockAddr = block;
    ai.ip = ip;
    ai.cat = BlockCat::NonReplay;
    return ai;
}

/** Predictor entry of an access from @p ip carrying the given flags. */
std::uint32_t
entryOf(const HawkeyePolicy &p, Addr ip, bool translation = false,
        bool replay = false)
{
    AccessInfo ai = access(0, ip);
    ai.ptLevel = translation ? 1 : 0;
    ai.isReplay = replay;
    return predictorIndex(ai, p.opts(), HawkeyePolicy::kPredSize);
}

TEST(Hawkeye, FriendlyPatternTrainsUp)
{
    HawkeyePolicy p(64, 4, {});
    const Addr ip = 0x400000;
    // Set 0 is sampled (stride divides 0). Tight reuse of few blocks:
    // OPT would keep them -> train up.
    const auto idx = entryOf(p, ip);
    const auto before = p.predictorCounter(idx);
    for (int round = 0; round < 16; ++round)
        for (Addr b = 0; b < 2; ++b)
            p.onFill(0, static_cast<std::uint32_t>(b),
                     access(b * 64, ip));
    EXPECT_GE(p.predictorCounter(idx), before);
    EXPECT_EQ(p.predictorCounter(idx), HawkeyePolicy::kCtrMax);
}

TEST(Hawkeye, ThrashingPatternTrainsDown)
{
    HawkeyePolicy p(64, 4, {});
    const Addr ip = 0x400100;
    const auto idx = entryOf(p, ip);
    // Cycle through more blocks than the OPTgen capacity (ways=4) with a
    // reuse distance that fits the sampler window: every reuse interval
    // overflows the occupancy vector, so OPT would miss -> train down.
    for (int round = 0; round < 8; ++round)
        for (Addr b = 0; b < 24; ++b)
            p.onFill(0, static_cast<std::uint32_t>(b % 4),
                     access(b * 64, ip));
    EXPECT_LT(p.predictorCounter(idx), HawkeyePolicy::kFriendlyThreshold);
}

TEST(Hawkeye, AverseInsertionGetsMaxRrpv)
{
    HawkeyePolicy p(64, 4, {});
    const Addr ip = 0x400200;
    const Addr friendlyIp = 0x111;
    // Drive the counter to zero via thrashing within the sampler window.
    for (int round = 0; round < 8; ++round)
        for (Addr b = 0; b < 24; ++b)
            p.onFill(0, static_cast<std::uint32_t>(b % 4),
                     access(b * 64, ip));
    // A fill from the averse IP parks at max RRPV and is evicted before
    // fresh friendly fills.
    p.onFill(1, 2, access(0x9040, ip));
    p.onFill(1, 0, access(0x100, friendlyIp));
    p.onFill(1, 1, access(0x140, friendlyIp));
    p.onFill(1, 3, access(0x180, friendlyIp));
    std::vector<BlockMeta> blocks(4);
    for (auto &b : blocks)
        b.valid = true;
    EXPECT_EQ(p.victim(1, access(0xa000, ip), blocks.data()), 2u);
}

TEST(Hawkeye, VictimDetrainsFriendlyBlocks)
{
    HawkeyePolicy p(64, 4, {});
    const Addr ip = 0x400300;
    const auto idx = entryOf(p, ip);
    // Fresh predictor: weakly friendly. Fill a non-sampled set fully
    // with friendly blocks, then evict one: its PC must be detrained.
    const auto before = p.predictorCounter(idx);
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onFill(1, w, access(0x100 + w * 64, ip));
    std::vector<BlockMeta> blocks(4);
    for (auto &b : blocks)
        b.valid = true;
    p.victim(1, access(0x9000, ip), blocks.data());
    EXPECT_LT(p.predictorCounter(idx), before + 1);
}

TEST(THawkeye, LeafTranslationForcedFriendly)
{
    ReplOpts opts;
    opts.newSignatures = true;
    opts.translationRrpv0 = true;
    HawkeyePolicy p(64, 4, opts);
    EXPECT_EQ(p.name(), "T-Hawkeye");

    const Addr ip = 0x400400;
    // Poison the translation signature as averse...
    for (int round = 0; round < 8; ++round)
        for (Addr b = 0; b < 64; ++b) {
            AccessInfo ai = access(b * 64, ip);
            ai.cat = BlockCat::PtLeaf;
            ai.ptLevel = 1;
            ai.leafPte = true;
            p.onFill(0, static_cast<std::uint32_t>(b % 4), ai);
        }
    // ...then a leaf translation fill must still be treated friendly.
    AccessInfo tr = access(0x8000, ip);
    tr.cat = BlockCat::PtLeaf;
    tr.ptLevel = 1;
    tr.leafPte = true;
    p.onFill(1, 0, tr);
    std::vector<BlockMeta> blocks(4);
    for (auto &b : blocks)
        b.valid = true;
    // Way 0 must NOT be the immediate victim (it is not at max RRPV).
    p.onFill(1, 1, access(0x9000, 0x777)); // likely averse or friendly
    EXPECT_NE(p.victim(1, access(0xa000, ip), blocks.data()), 0u);
}

TEST(THawkeye, NewSignaturesSeparatePredictorEntries)
{
    ReplOpts opts;
    opts.newSignatures = true;
    HawkeyePolicy p(64, 4, opts);
    const Addr ip = 0x400500;
    EXPECT_NE(entryOf(p, ip, true), entryOf(p, ip));
    EXPECT_NE(entryOf(p, ip, false, true), entryOf(p, ip));
}

TEST(Hawkeye, DefaultSignaturesIgnoreFlags)
{
    HawkeyePolicy p(64, 4, {});
    const Addr ip = 0x400600;
    EXPECT_EQ(entryOf(p, ip, true), entryOf(p, ip));
}

TEST(Hawkeye, VictimPrefersMaxRrpv)
{
    HawkeyePolicy p(64, 4, {});
    // Fill ways; with a fresh (friendly) predictor they insert at 0.
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onFill(2, w, access(w * 64, 0x400700));
    // Force one way averse via distant hint.
    AccessInfo pf = access(0x8000, 0x400800);
    pf.distantHint = true;
    p.onFill(2, 3, pf);
    std::vector<BlockMeta> blocks(4);
    for (auto &b : blocks)
        b.valid = true;
    EXPECT_EQ(p.victim(2, access(0x9000, 0x400700), blocks.data()), 3u);
}

} // namespace
} // namespace tacsim
