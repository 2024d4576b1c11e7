/**
 * @file
 * Unit tests for SHiP and its translation-conscious variants: SHCT
 * training, insertion prediction, the paper's NewSign flag-extended
 * signatures and T-SHiP's leaf-translation insertion.
 */

#include <gtest/gtest.h>

#include "cache/repl/ship.hh"

namespace tacsim {
namespace {

AccessInfo
dataAccess(Addr ip)
{
    AccessInfo ai;
    ai.blockAddr = 0x1000;
    ai.ip = ip;
    ai.cat = BlockCat::NonReplay;
    return ai;
}

/** SHCT entry of an access from @p ip carrying the given flags. */
std::uint32_t
entryOf(const ShipPolicy &p, Addr ip, bool translation = false,
        bool replay = false)
{
    AccessInfo ai = dataAccess(ip);
    ai.ptLevel = translation ? 1 : 0;
    ai.isReplay = replay;
    return predictorIndex(ai, p.opts(), ShipPolicy::kShctSize);
}

BlockMeta
validMeta()
{
    BlockMeta m;
    m.valid = true;
    return m;
}

TEST(Ship, DeadSignatureInsertsDistant)
{
    ShipPolicy p(64, 8, {});
    const Addr ip = 0x400100;
    // Train the signature dead: fill + evict without reuse, repeatedly.
    for (int i = 0; i < 8; ++i) {
        p.onFill(0, 0, dataAccess(ip));
        p.onEvict(0, 0, validMeta());
    }
    p.onFill(0, 0, dataAccess(ip));
    EXPECT_EQ(p.rrpv(0, 0), RripBase::kMaxRrpv);
}

TEST(Ship, ReusedSignatureInsertsLong)
{
    ShipPolicy p(64, 8, {});
    const Addr ip = 0x400200;
    for (int i = 0; i < 4; ++i) {
        p.onFill(0, 0, dataAccess(ip));
        p.onHit(0, 0, dataAccess(ip));
    }
    p.onFill(0, 1, dataAccess(ip));
    EXPECT_EQ(p.rrpv(0, 1), RripBase::kMaxRrpv - 1);
}

TEST(Ship, CounterSaturates)
{
    ShipPolicy p(64, 8, {});
    const Addr ip = 0x400300;
    for (int i = 0; i < 100; ++i) {
        p.onFill(0, 0, dataAccess(ip));
        p.onHit(0, 0, dataAccess(ip));
    }
    const auto sig = entryOf(p, ip);
    EXPECT_EQ(p.shct(sig), ShipPolicy::kCounterMax);
}

TEST(Ship, OnlyFirstHitTrains)
{
    ShipPolicy p(64, 8, {});
    const Addr ip = 0x400400;
    const auto sig = entryOf(p, ip);
    const auto before = p.shct(sig);
    p.onFill(0, 0, dataAccess(ip));
    p.onHit(0, 0, dataAccess(ip));
    p.onHit(0, 0, dataAccess(ip));
    p.onHit(0, 0, dataAccess(ip));
    EXPECT_EQ(p.shct(sig), before + 1);
}

TEST(Ship, DefaultSignaturesIgnoreFlags)
{
    ShipPolicy p(64, 8, {});
    EXPECT_EQ(entryOf(p, 0x400500), entryOf(p, 0x400500, true));
    EXPECT_EQ(entryOf(p, 0x400500), entryOf(p, 0x400500, false, true));
}

TEST(Ship, NewSignaturesSeparateTrafficClasses)
{
    ReplOpts opts;
    opts.newSignatures = true;
    ShipPolicy p(64, 8, opts);
    const Addr ip = 0x400600;
    const auto data = entryOf(p, ip);
    const auto translation = entryOf(p, ip, true);
    const auto replay = entryOf(p, ip, false, true);
    EXPECT_NE(data, translation);
    EXPECT_NE(data, replay);
    EXPECT_NE(translation, replay);
}

TEST(Ship, NewSignaturesIsolateTraining)
{
    // The paper's motivating failure: a dead data signature must not
    // doom the same IP's translation blocks. With NewSign it does not.
    ReplOpts opts;
    opts.newSignatures = true;
    ShipPolicy p(64, 8, opts);
    const Addr ip = 0x400700;

    AccessInfo data = dataAccess(ip);
    for (int i = 0; i < 8; ++i) {
        p.onFill(0, 0, data);
        p.onEvict(0, 0, validMeta());
    }

    AccessInfo tr = dataAccess(ip);
    tr.cat = BlockCat::PtLeaf;
    tr.ptLevel = 1;
    tr.leafPte = true;
    p.onFill(0, 1, tr);
    EXPECT_LT(p.rrpv(0, 1), RripBase::kMaxRrpv)
        << "translation insertion poisoned by data training";
}

TEST(TShip, LeafTranslationsInsertAtZero)
{
    ReplOpts opts;
    opts.newSignatures = true;
    opts.translationRrpv0 = true;
    ShipPolicy p(64, 8, opts);
    AccessInfo tr = dataAccess(0x400800);
    tr.cat = BlockCat::PtLeaf;
    tr.ptLevel = 1;
    tr.leafPte = true;
    p.onFill(3, 0, tr);
    EXPECT_EQ(p.rrpv(3, 0), 0);
    EXPECT_EQ(p.name(), "T-SHiP");
}

TEST(TShip, NewSignOnlyNameAndBehaviour)
{
    ReplOpts opts;
    opts.newSignatures = true;
    ShipPolicy p(64, 8, opts);
    EXPECT_EQ(p.name(), "SHiP-NewSign");
    AccessInfo tr = dataAccess(0x400900);
    tr.cat = BlockCat::PtLeaf;
    tr.ptLevel = 1;
    tr.leafPte = true;
    p.onFill(3, 0, tr);
    EXPECT_GT(p.rrpv(3, 0), 0); // no forced RRPV0 without the T flag
}

TEST(Ship, EvictWithoutReuseDecrements)
{
    ShipPolicy p(64, 8, {});
    const Addr ip = 0x400a00;
    const auto sig = entryOf(p, ip);
    p.onFill(0, 0, dataAccess(ip));
    p.onHit(0, 0, dataAccess(ip)); // counter -> 2
    const auto mid = p.shct(sig);
    p.onFill(0, 0, dataAccess(ip));
    p.onEvict(0, 0, validMeta()); // no reuse -> decrement
    EXPECT_EQ(p.shct(sig), mid - 1);
}

TEST(Ship, InvalidEvictDoesNotTrain)
{
    ShipPolicy p(64, 8, {});
    const Addr ip = 0x400b00;
    const auto sig = entryOf(p, ip);
    const auto before = p.shct(sig);
    p.onFill(0, 0, dataAccess(ip));
    BlockMeta invalid;
    invalid.valid = false;
    p.onEvict(0, 0, invalid);
    EXPECT_EQ(p.shct(sig), before);
}

} // namespace
} // namespace tacsim
