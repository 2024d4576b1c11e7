/**
 * @file
 * Machine-shape unit tests: the topology label (canonical key order,
 * defaults omitted, every key, LLC size units), validateTopology's
 * exact messages, the DRAM channel rule as System builds it, and a
 * seeded property loop asserting that the label tells apart any two
 * valid machines that differ in one composition field.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "sim/topology.hh"
#include "workloads/benchmarks.hh"

namespace tacsim {
namespace {

/** validateTopology's message for @p cfg, or "accepted". */
std::string
refusal(const SystemConfig &cfg)
{
    try {
        validateTopology(cfg);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "accepted";
}

/** @p cfg with @p bytes of LLC per core in @p ways ways. */
SystemConfig
withLlc(SystemConfig cfg, std::uint32_t bytes, std::uint32_t ways)
{
    cfg.llcPerCore.sizeBytes = bytes;
    cfg.llcPerCore.ways = ways;
    return cfg;
}

TEST(TopologySpecTest, DumpIsCanonicalAndOmitsDefaults)
{
    EXPECT_EQ(topologyText(SystemConfig{}), "cores=1");

    // The header's example: keys print in canonical order, and the
    // fields left at their defaults are omitted.
    SystemConfig cfg =
        withLlc({.numCores = 32, .threadsPerCore = 2}, 512u << 10, 32);
    cfg.dram.channels = 4;
    EXPECT_EQ(refusal(cfg), "accepted");
    EXPECT_EQ(topologyText(cfg), "cores=32,smt=2,llc=16MB/32w,chan=4");
}

TEST(TopologySpecTest, PrintsEveryKey)
{
    SystemConfig cfg =
        withLlc({.numCores = 64, .threadsPerCore = 4}, 2u << 20, 32);
    cfg.dram.channels = 8;
    EXPECT_EQ(refusal(cfg), "accepted");
    EXPECT_EQ(topologyText(cfg), "cores=64,smt=4,llc=128MB/32w,chan=8");
}

TEST(TopologySpecTest, LlcSizesAcceptAllUnitsAndAuto)
{
    // Every size validates and prints in the largest unit that divides
    // it exactly, or in plain bytes when none does.
    const auto label = [](std::uint32_t bytes, std::uint32_t ways) {
        const SystemConfig cfg = withLlc({}, bytes, ways);
        EXPECT_EQ(refusal(cfg), "accepted") << bytes;
        return topologyText(cfg);
    };
    EXPECT_EQ(label(512u << 10, 8), "cores=1,llc=512KB/8w");
    EXPECT_EQ(label(1u << 30, 32), "cores=1,llc=1GB/32w");
    EXPECT_EQ(label(65536, 4), "cores=1,llc=64KB/4w");
    EXPECT_EQ(label(512, 1), "cores=1,llc=512/1w");

    // The label prints the whole LLC: the per-core size times the cores.
    const SystemConfig a = withLlc({.numCores = 4}, 2u << 20, 32);
    EXPECT_EQ(llcBytesOf(a), 8u * 1024 * 1024);
    EXPECT_EQ(topologyText(a), "cores=4,llc=8MB/32w");
}

TEST(TopologySpecTest, RejectsWithExactMessages)
{
    EXPECT_EQ(refusal({.numCores = 0}), "topology: cores must be nonzero");
    EXPECT_EQ(refusal({.numCores = 2000}),
              "topology: cores must be <= 1024");
    EXPECT_EQ(refusal({.numCores = 4, .threadsPerCore = 9}),
              "topology: smt must be in 1..8");
    EXPECT_EQ(refusal(withLlc({.numCores = 4}, 2u << 20, 12)),
              "topology: llc ways must be a nonzero power of two");
    EXPECT_EQ(refusal(withLlc({.numCores = 4}, 768u << 10, 16)),
              "topology: llc size 3MB with 16 ways does not yield a "
              "power-of-two set count");
    // 2^34 sets: more than CacheParams::sets holds, so a System would
    // narrow the count to 0 and abort the whole process.
    EXPECT_EQ(refusal(withLlc({.numCores = 512}, 2u << 30, 1)),
              "topology: llc size 1024GB with 1 ways needs 17179869184 "
              "sets, more than a cache can index");
}

TEST(TopologySpecTest, ApplyValidatesAgainstTheConfigsLlcSizing)
{
    // The LLC takes the config's per-core capacity: 1.5MB per core
    // gives no power-of-two set count.
    SystemConfig cfg;
    EXPECT_EQ(refusal(cfg), "accepted");
    cfg.llcPerCore.sizeBytes = 3 * 512 * 1024;
    EXPECT_EQ(refusal(cfg),
              "topology: llc size 1536KB with 16 ways does not yield a "
              "power-of-two set count");
}

TEST(TopologySpecTest, RefusesWidthsThatHangTheCore)
{
    // A zero issue or retire width never ends a run, so no sweep point
    // may reach System with one: the message names the field.
    SystemConfig cfg;
    cfg.core.issueWidth = 0;
    EXPECT_EQ(refusal(cfg), "topology: core.issueWidth = 0 must be nonzero");
    cfg = {};
    cfg.core.retireWidth = 0;
    EXPECT_EQ(refusal(cfg),
              "topology: core.retireWidth = 0 must be nonzero");
    EXPECT_EQ(refusal({}), "accepted");
}

TEST(TopologySpecTest, ChanIsTheChannelCountSystemBuilds)
{
    // One channel per four cores unless dram.channels names a count;
    // 1 means one channel, not "derive".
    auto channelsBuilt = [](const SystemConfig &cfg) {
        std::vector<std::unique_ptr<Workload>> w;
        for (unsigned t = 0; t < cfg.threads(); ++t)
            w.push_back(makeWorkload(Benchmark::xalancbmk, cfg.seed + t));
        return System(cfg, std::move(w)).dram().params().channels;
    };
    SystemConfig eight{.numCores = 8};
    EXPECT_EQ(channelsBuilt(eight), 2u);
    eight.dram.channels = 1;
    EXPECT_EQ(channelsBuilt(eight), 1u);
    EXPECT_EQ(topologyText(eight), "cores=8,chan=1");
    SystemConfig four{.numCores = 4};
    EXPECT_EQ(channelsBuilt(four), 1u);
    four.dram.channels = 3;
    EXPECT_EQ(channelsBuilt(four), 3u);

    EXPECT_EQ(dramChannelsOf({.numCores = 9}), 3u);
}

TEST(TopologySpecTest, PropertyStressRoundTrip)
{
    // The label must still pin a machine's shape, as the text -> config
    // -> text round trip once did: on a random valid machine, changing
    // any one composition field to another valid value changes
    // topologyText. The generator is seeded, so a failure reproduces
    // exactly.
    using Draw = void (*)(SystemConfig &, Rng &);
    struct Field
    {
        const char *name;
        Draw draw;
    };
    const Field fields[] = {
        {"numCores",
         [](SystemConfig &c, Rng &r) { c.numCores = 1u << r.range(8); }},
        {"threadsPerCore",
         [](SystemConfig &c, Rng &r) {
             c.threadsPerCore = 1 + static_cast<unsigned>(r.range(8));
         }},
        {"llcPerCore.ways",
         [](SystemConfig &c, Rng &r) { c.llcPerCore.ways = 1u << r.range(6); }},
        // Includes 1 channel on machines of more than four cores.
        {"dram.channels",
         [](SystemConfig &c, Rng &r) {
             c.dram.channels = static_cast<unsigned>(r.range(9));
         }},
    };

    Rng rng(0x70b0106fu);
    std::vector<unsigned> checked(std::size(fields), 0);
    for (int i = 0; i < 500; ++i) {
        SystemConfig cfg;
        for (const Field &f : fields)
            f.draw(cfg, rng);
        const std::string text = topologyText(cfg);
        ASSERT_EQ(refusal(cfg), "accepted") << text;

        for (std::size_t f = 0; f < std::size(fields); ++f) {
            SystemConfig other = cfg;
            for (int tries = 0; tries < 16 && canonicalConfigText(other) ==
                     canonicalConfigText(cfg); ++tries)
                fields[f].draw(other, rng);
            if (canonicalConfigText(other) == canonicalConfigText(cfg) ||
                refusal(other) != "accepted")
                continue;
            ++checked[f];
            ASSERT_NE(topologyText(other), text)
                << "changing " << fields[f].name << " is invisible in '"
                << text << "' (iteration " << i << ")";
        }
    }
    for (std::size_t f = 0; f < std::size(fields); ++f)
        EXPECT_GT(checked[f], 100u) << fields[f].name;
}

} // namespace
} // namespace tacsim
