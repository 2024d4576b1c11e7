/**
 * @file
 * Unit tests for the data prefetchers: SPP, Bingo, IPCP (incl. the
 * TLB-gated cross-page path) and ISB.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "prefetch/bingo.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/isb.hh"
#include "prefetch/spp.hh"

namespace tacsim {
namespace {

/** Captures issued prefetches. */
class CaptureIssuer : public PrefetchIssuer
{
  public:
    void
    issuePrefetch(Addr paddr, PrefetchOrigin origin, Addr) override
    {
        issued.push_back({paddr, origin});
    }

    bool
    has(Addr paddr) const
    {
        for (const auto &p : issued)
            if (blockAlign(p.first) == blockAlign(paddr))
                return true;
        return false;
    }

    std::vector<std::pair<Addr, PrefetchOrigin>> issued;
};

AccessInfo
demand(Addr paddr, Addr ip, Addr vaddr = 0)
{
    AccessInfo ai;
    ai.blockAddr = blockAlign(paddr);
    ai.vaddr = vaddr ? vaddr : paddr;
    ai.ip = ip;
    ai.cat = BlockCat::NonReplay;
    return ai;
}

TEST(Spp, SignatureUpdateFoldsDelta)
{
    const auto s1 = SppPrefetcher::updateSignature(0, 3);
    const auto s2 = SppPrefetcher::updateSignature(s1, -2);
    EXPECT_NE(s1, s2);
    EXPECT_LT(s2, 1u << 12);
    // Deterministic.
    EXPECT_EQ(SppPrefetcher::updateSignature(0, 3), s1);
}

TEST(Spp, LearnsConstantDeltaAndLooksAhead)
{
    SppPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    const Addr ip = 0x400300;
    // Train delta=+1 within a page, several pages in a row.
    for (Addr page = 0; page < 4; ++page)
        for (Addr b = 0; b < 16; ++b)
            pf.onAccess(demand((Addr{0x100000} + page * kPageSize) +
                                   b * kBlockSize,
                               ip),
                        false);
    sink.issued.clear();
    // On a fresh page the learned path should prefetch ahead.
    pf.onAccess(demand(0x900000, ip), false);
    pf.onAccess(demand(0x900040, ip), false);
    EXPECT_FALSE(sink.issued.empty());
    EXPECT_TRUE(sink.has(0x900080));
}

TEST(Spp, NeverCrossesPages)
{
    SppPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    const Addr ip = 0x400400;
    for (Addr page = 0; page < 4; ++page)
        for (Addr b = 0; b < 64; ++b)
            pf.onAccess(demand((Addr{0x200000} + page * kPageSize) +
                                   b * kBlockSize,
                               ip),
                        false);
    for (const auto &p : sink.issued)
        EXPECT_EQ(pageNumber(p.first),
                  pageNumber(blockAlign(p.first)));
    // Stronger: every prefetch stays in some accessed page range.
    for (const auto &p : sink.issued)
        EXPECT_LT(p.first, Addr{0x200000} + 4 * kPageSize);
}

TEST(Bingo, ReplaysRecordedFootprint)
{
    BingoPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    const Addr ip = 0x400500;
    // Touch a footprint {0, 2, 5} in many regions so the (PC, offset)
    // short event is learned, then trigger a fresh region.
    for (Addr r = 0; r < 70; ++r) {
        const Addr base = Addr{0x400000} + r * BingoPrefetcher::kRegionSize;
        pf.onAccess(demand(base, ip), false);
        pf.onAccess(demand(base + 2 * kBlockSize, ip), false);
        pf.onAccess(demand(base + 5 * kBlockSize, ip), false);
    }
    sink.issued.clear();
    const Addr fresh = 0x4000000;
    pf.onAccess(demand(fresh, ip), false);
    EXPECT_TRUE(sink.has(fresh + 2 * kBlockSize));
    EXPECT_TRUE(sink.has(fresh + 5 * kBlockSize));
}

TEST(Ipcp, ConstantStrideCrossesPagesWhenTlbHits)
{
    IpcpPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    pf.setTranslateHook([](Addr vaddr, std::uint16_t) {
        return std::optional<Addr>(vaddr + 0x10000000); // always hits
    });
    const Addr ip = 0x400600;
    // Large stride: 32 blocks = half a page, crosses pages quickly.
    for (Addr i = 0; i < 8; ++i)
        pf.onAccess(demand(0, ip, Addr{0x300000} + i * 0x800), false);
    EXPECT_FALSE(sink.issued.empty());
    // Prefetches carry the hook's translation.
    for (const auto &p : sink.issued)
        EXPECT_GE(p.first, 0x10000000u);
}

TEST(Ipcp, CrossPagePrefetchDroppedOnStlbMiss)
{
    IpcpPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    pf.setTranslateHook([](Addr, std::uint16_t) {
        return std::optional<Addr>(); // STLB always misses
    });
    const Addr ip = 0x400700;
    for (Addr i = 0; i < 8; ++i)
        pf.onAccess(demand(0, ip, Addr{0x300000} + i * 0x800), false);
    EXPECT_TRUE(sink.issued.empty());
}

TEST(Ipcp, GlobalStreamIssuesNextLines)
{
    IpcpPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    pf.setTranslateHook(
        [](Addr vaddr, std::uint16_t) { return std::optional<Addr>(vaddr); });
    // Dense ascending accesses in one 2KB region from varied IPs.
    for (Addr i = 0; i < 8; ++i)
        pf.onAccess(demand(0, 0x400800 + i * 4,
                           Addr{0x500000} + i * kBlockSize),
                    false);
    EXPECT_TRUE(sink.has(0x500000 + 8 * kBlockSize));
}

TEST(Isb, LinksTemporalNeighbours)
{
    IsbPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    const Addr ip = 0x400900;
    const Addr seq[] = {0x7000, 0x913000, 0x55000, 0xabc0000};
    // Two passes: first trains, second predicts.
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a : seq)
            pf.onAccess(demand(a, ip), false);
    EXPECT_TRUE(sink.has(0x913000));
    EXPECT_TRUE(sink.has(0x55000));
}

TEST(Isb, StructuralAddressesAssigned)
{
    IsbPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    const Addr ip = 0x400a00;
    pf.onAccess(demand(0x1000, ip), false);
    pf.onAccess(demand(0x2000, ip), false);
    const auto s1 = pf.structuralOf(0x1000);
    const auto s2 = pf.structuralOf(0x2000);
    ASSERT_NE(s1, 0u);
    EXPECT_EQ(s2, s1 + 1);
}

TEST(Isb, DifferentPcsTrainSeparateStreams)
{
    IsbPrefetcher pf;
    CaptureIssuer sink;
    pf.setIssuer(&sink);
    // Interleaved accesses from two PCs: each PC's stream stays coherent.
    pf.onAccess(demand(0x1000, 0x111), false);
    pf.onAccess(demand(0x9000, 0x999), false);
    pf.onAccess(demand(0x2000, 0x111), false);
    pf.onAccess(demand(0xa000, 0x999), false);
    EXPECT_EQ(pf.structuralOf(0x2000), pf.structuralOf(0x1000) + 1);
    EXPECT_EQ(pf.structuralOf(0xa000), pf.structuralOf(0x9000) + 1);
}

} // namespace
} // namespace tacsim
