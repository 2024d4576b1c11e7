/**
 * @file
 * Topology text unit tests: canonical round-trips through SystemConfig,
 * exact rejection messages for every malformed-text class (narrowing
 * counts included), the text <-> composition-field mapping, the DRAM
 * channel rule as System builds it, and a seeded property stress loop
 * asserting text -> config -> text is the identity on random valid
 * machines.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "sim/topology.hh"
#include "workloads/benchmarks.hh"

namespace tacsim {
namespace {

/** Parse @p text expecting failure; returns the exception message. */
std::string
parseError(const std::string &text)
{
    try {
        configFromTopology(text);
    } catch (const std::invalid_argument &e) {
        return e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << "wrong exception type for '" << text
                      << "': " << e.what();
        return "";
    }
    ADD_FAILURE() << "spec '" << text << "' unexpectedly parsed";
    return "";
}

TEST(TopologySpecTest, ParsesTheHeadlineExample)
{
    const SystemConfig cfg =
        configFromTopology("cores=32,smt=2,llc=16MB/32w,slices=8,chan=4");
    EXPECT_EQ(cfg.numCores, 32u);
    EXPECT_EQ(cfg.threadsPerCore, 2u);
    EXPECT_EQ(cfg.threads(), 64u);
    EXPECT_EQ(cfg.llcTotalBytes, 16u * 1024 * 1024);
    EXPECT_EQ(cfg.llcPerCore.ways, 32u);
    EXPECT_EQ(cfg.llcSlices, 8u);
    EXPECT_EQ(cfg.dram.channels, 4u);
    // Unmentioned knobs keep their defaults.
    EXPECT_EQ(cfg.llcSliceHopLatency, 0u);
    EXPECT_EQ(cfg.llcMshrQuotaPerCore, 0u);
    EXPECT_EQ(cfg.llcBwTokensPerCore, 0u);
    EXPECT_EQ(cfg.llcBwWindow, 64u);
}

TEST(TopologySpecTest, DumpIsCanonicalAndOmitsDefaults)
{
    EXPECT_EQ(topologyText(SystemConfig{}), "cores=1");

    const std::string text =
        "cores=32,smt=2,llc=16MB/32w,slices=8,chan=4";
    EXPECT_EQ(topologyText(configFromTopology(text)), text);

    // Keys are re-emitted in canonical order regardless of input order.
    EXPECT_EQ(topologyText(configFromTopology("slices=4,cores=16,smt=2")),
              "cores=16,smt=2,slices=4");
}

TEST(TopologySpecTest, RoundTripsEveryKey)
{
    const std::string text =
        "cores=64,smt=4,llc=128MB/32w,slices=16,slice_lat=3,chan=8,"
        "mshr_quota=24,bw=16/128c";
    const SystemConfig cfg = configFromTopology(text);
    EXPECT_EQ(cfg.llcSliceHopLatency, 3u);
    EXPECT_EQ(cfg.llcMshrQuotaPerCore, 24u);
    EXPECT_EQ(cfg.llcBwTokensPerCore, 16u);
    EXPECT_EQ(cfg.llcBwWindow, 128u);
    EXPECT_EQ(topologyText(cfg), text);
    EXPECT_EQ(canonicalConfigText(configFromTopology(topologyText(cfg))),
              canonicalConfigText(cfg));
}

TEST(TopologySpecTest, LlcSizesAcceptAllUnitsAndAuto)
{
    EXPECT_EQ(configFromTopology("cores=1,llc=512KB/8w").llcTotalBytes,
              512u * 1024);
    EXPECT_EQ(configFromTopology("cores=1,llc=1GB/16w").llcTotalBytes,
              std::uint64_t{1} << 30);
    // Plain bytes work and dump as the largest exact unit.
    EXPECT_EQ(topologyText(configFromTopology("cores=1,llc=65536/4w")),
              "cores=1,llc=64KB/4w");

    const SystemConfig a = configFromTopology("cores=4,llc=auto/32w");
    EXPECT_EQ(a.llcTotalBytes, 0u);
    EXPECT_EQ(a.llcPerCore.ways, 32u);
    EXPECT_EQ(llcBytesOf(a), 8u * 1024 * 1024);
    EXPECT_EQ(topologyText(a), "cores=4,llc=auto/32w");
}

TEST(TopologySpecTest, BwWindowDefaultIsOmitted)
{
    EXPECT_EQ(topologyText(configFromTopology("cores=2,bw=32")),
              "cores=2,bw=32");
    EXPECT_EQ(topologyText(configFromTopology("cores=2,bw=32/64c")),
              "cores=2,bw=32");
}

TEST(TopologySpecTest, RejectsWithExactMessages)
{
    EXPECT_EQ(parseError(""), "topology: empty spec");
    EXPECT_EQ(parseError("cores=0"), "topology: cores must be nonzero");
    EXPECT_EQ(parseError("cores=2000"),
              "topology: cores must be <= 1024");
    EXPECT_EQ(parseError("cores=4,smt=9"),
              "topology: smt must be in 1..8");
    EXPECT_EQ(parseError("cores=4,llc=8MB/12w"),
              "topology: llc ways must be a nonzero power of two");
    EXPECT_EQ(parseError("cores=4,slices=3"),
              "topology: slices must be a nonzero power of two");
    EXPECT_EQ(parseError("cores=4,bw=8/0c"),
              "topology: bw window must be nonzero");
    EXPECT_EQ(parseError("cores=4,llc=3MB/16w"),
              "topology: llc size 3MB with 16 ways does not yield a "
              "power-of-two set count");
    EXPECT_EQ(parseError("cores=1,llc=64KB/16w,slices=128"),
              "topology: slices (128) exceed llc sets (64)");
    // 2^34 sets: more than CacheParams::sets holds, so a System would
    // narrow the count to 0 and abort the whole process.
    EXPECT_EQ(parseError("cores=1,llc=1024GB/1w"),
              "topology: llc size 1024GB with 1 ways needs 17179869184 "
              "sets, more than a cache can index");
    // A count its field cannot hold is refused, not wrapped: these
    // would otherwise build 1 core, 2 threads, no MSHR quota and an
    // auto-sized (2^64 mod 2^64 = 0 byte) LLC.
    EXPECT_EQ(parseError("cores=4294967297"),
              "topology: bad value '4294967297' for 'cores'");
    EXPECT_EQ(parseError("cores=4,smt=4294967298"),
              "topology: bad value '4294967298' for 'smt'");
    EXPECT_EQ(parseError("cores=4,mshr_quota=4294967296"),
              "topology: bad value '4294967296' for 'mshr_quota'");
    EXPECT_EQ(parseError("cores=4,llc=17179869184GB/16w"),
              "topology: bad size '17179869184GB' for 'llc'");
}

TEST(TopologySpecTest, RejectsMalformedSyntax)
{
    EXPECT_EQ(parseError("cores"),
              "topology: expected key=value, got 'cores'");
    EXPECT_EQ(parseError("cores=4,,slices=2"),
              "topology: expected key=value, got ''");
    EXPECT_EQ(parseError("cores=4,cores=8"),
              "topology: duplicate key 'cores'");
    EXPECT_EQ(parseError("pizza=1"), "topology: unknown key 'pizza'");
    EXPECT_EQ(parseError("cores=x"),
              "topology: bad value 'x' for 'cores'");
    EXPECT_EQ(parseError("cores=4,llc=bogus/16w"),
              "topology: bad size 'bogus' for 'llc'");
    EXPECT_EQ(parseError("cores=4,llc=8MB/16"),
              "topology: bad ways '16' for 'llc'");
    EXPECT_EQ(parseError("cores=4,bw=8/64"),
              "topology: bad window '64' for 'bw'");
    EXPECT_EQ(parseError("cores=4,bw=x"),
              "topology: bad value 'x' for 'bw'");
}

TEST(TopologySpecTest, ConfigMappingIsAnInverse)
{
    // The default config prints as the default text (dram.channels=0
    // is the derived-channels default, so it is omitted).
    EXPECT_EQ(topologyText(SystemConfig{}), "cores=1");

    const std::string text =
        "cores=16,smt=2,llc=64MB/32w,slices=4,slice_lat=2,chan=4,"
        "mshr_quota=64,bw=32/128c";
    const SystemConfig cfg = configFromTopology(text);
    EXPECT_EQ(cfg.numCores, 16u);
    EXPECT_EQ(cfg.threadsPerCore, 2u);
    EXPECT_EQ(cfg.llcTotalBytes, 64u * 1024 * 1024);
    EXPECT_EQ(cfg.llcPerCore.ways, 32u);
    EXPECT_EQ(cfg.llcSlices, 4u);
    EXPECT_EQ(cfg.llcSliceHopLatency, 2u);
    EXPECT_EQ(cfg.dram.channels, 4u);
    EXPECT_EQ(cfg.llcMshrQuotaPerCore, 64u);
    EXPECT_EQ(cfg.llcBwTokensPerCore, 32u);
    EXPECT_EQ(cfg.llcBwWindow, 128u);
    EXPECT_EQ(topologyText(cfg), text);

    // Keys the text omits take the defaults, not the base config's.
    EXPECT_EQ(topologyText(configFromTopology("cores=2", cfg)), "cores=2");
}

TEST(TopologySpecTest, ApplyValidatesAgainstTheConfigsLlcSizing)
{
    // 3 slices is structurally invalid no matter the capacity.
    SystemConfig bad;
    bad.llcSlices = 3;
    EXPECT_THROW(validateTopology(bad), std::invalid_argument);

    // "auto" sizes the LLC from the base config's per-core capacity:
    // 1.5MB per core gives no power-of-two set count.
    SystemConfig base;
    base.llcPerCore.sizeBytes = 3 * 512 * 1024;
    EXPECT_NO_THROW(configFromTopology("cores=1"));
    EXPECT_THROW(configFromTopology("cores=1", base), std::invalid_argument);
}

TEST(TopologySpecTest, RefusesWidthsThatHangTheCore)
{
    // A zero issue or retire width never ends a run, so no sweep point
    // may reach System with one: the message names the field.
    const auto refusal = [](auto breakIt) {
        SystemConfig cfg;
        breakIt(cfg);
        try {
            validateTopology(cfg);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(refusal([](SystemConfig &c) { c.core.issueWidth = 0; }),
              "topology: core.issueWidth = 0 must be nonzero");
    EXPECT_EQ(refusal([](SystemConfig &c) { c.core.retireWidth = 0; }),
              "topology: core.retireWidth = 0 must be nonzero");
    EXPECT_EQ(refusal([](SystemConfig &) {}), "accepted");
}

TEST(TopologySpecTest, ChanIsTheChannelCountSystemBuilds)
{
    // One channel per four cores unless chan names a count; chan=1
    // means one channel, not "derive".
    auto channelsBuilt = [](const std::string &text) {
        const SystemConfig cfg = configFromTopology(text);
        std::vector<std::unique_ptr<Workload>> w;
        for (unsigned t = 0; t < cfg.threads(); ++t)
            w.push_back(makeWorkload(Benchmark::xalancbmk, cfg.seed + t));
        return System(cfg, std::move(w)).dram().params().channels;
    };
    EXPECT_EQ(channelsBuilt("cores=8"), 2u);
    EXPECT_EQ(channelsBuilt("cores=8,chan=1"), 1u);
    EXPECT_EQ(channelsBuilt("cores=4"), 1u);
    EXPECT_EQ(channelsBuilt("cores=4,chan=3"), 3u);

    EXPECT_EQ(topologyText(configFromTopology("cores=8,chan=1")),
              "cores=8,chan=1");
    EXPECT_EQ(dramChannelsOf(configFromTopology("cores=9,llc=16MB/16w")),
              3u);
}

TEST(TopologySpecTest, PropertyStressRoundTrip)
{
    // text -> config -> text must be the identity on any valid machine.
    // The generator is seeded, so a failure reproduces exactly.
    Rng rng(0x70b0106fu);
    for (int i = 0; i < 500; ++i) {
        SystemConfig cfg;
        cfg.numCores = 1u << rng.range(8);
        cfg.threadsPerCore = 1 + static_cast<unsigned>(rng.range(8));
        cfg.llcPerCore.ways = 1u << rng.range(6);
        if (rng.range(2))
            cfg.llcTotalBytes =
                (std::uint64_t{cfg.llcPerCore.ways} * kBlockSize)
                << rng.range(12);
        const std::uint64_t sets =
            llcBytesOf(cfg) / (std::uint64_t{cfg.llcPerCore.ways} * kBlockSize);
        unsigned maxSliceLog = 0;
        while (maxSliceLog < 6 &&
               (std::uint64_t{1} << (maxSliceLog + 1)) <= sets)
            ++maxSliceLog;
        cfg.llcSlices = 1u << rng.range(maxSliceLog + 1);
        cfg.llcSliceHopLatency = rng.range(8);
        // Includes chan=1 on machines of more than four cores.
        cfg.dram.channels = static_cast<unsigned>(rng.range(9));
        cfg.llcMshrQuotaPerCore = static_cast<std::uint32_t>(rng.range(256));
        cfg.llcBwTokensPerCore = static_cast<std::uint32_t>(rng.range(64));
        // The window is only printed alongside nonzero tokens.
        cfg.llcBwWindow = cfg.llcBwTokensPerCore ? 1 + rng.range(256) : 64;

        const std::string text = topologyText(cfg);
        ASSERT_NO_THROW(validateTopology(cfg)) << text;
        SystemConfig back;
        ASSERT_NO_THROW(back = configFromTopology(text)) << text;
        ASSERT_EQ(canonicalConfigText(back), canonicalConfigText(cfg))
            << "round-trip drift through '" << text << "' (iteration "
            << i << ")";
    }
}

} // namespace
} // namespace tacsim
