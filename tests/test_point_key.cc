/**
 * @file
 * Tests for the canonical point hash (serve/point_key.hh): its shape,
 * stability of the key, sensitivity to exactly the inputs that
 * determine a simulation's outcome (config, workload content, budgets)
 * — and insensitivity to everything else (trace file names,
 * explicitly-spelled default budgets).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/point_key.hh"
#include "sim/config.hh"
#include "sim/runner.hh"

namespace tacsim {
namespace {

std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "tacsim_" + stem + "_" +
        std::to_string(::getpid());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good());
}

/** True iff @p s has a point key's shape: 32 lowercase hex chars. */
bool
isHexKey(const std::string &s)
{
    return s.size() == 32 &&
        std::all_of(s.begin(), s.end(), [](char c) {
               return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
           });
}

TEST(PointKey, ShapeAndStability)
{
    SystemConfig cfg;
    const std::string k1 = serve::pointKey(cfg, {"mcf"}, 20000, 5000);
    EXPECT_TRUE(isHexKey(k1)) << k1;
    EXPECT_EQ(k1, serve::pointKey(cfg, {"mcf"}, 20000, 5000));
}

TEST(PointKey, SensitiveToOutcomeDeterminingInputs)
{
    SystemConfig cfg;
    const std::string base = serve::pointKey(cfg, {"mcf"}, 20000, 5000);

    SystemConfig other = cfg;
    other.stlbEntries = cfg.stlbEntries * 2;
    EXPECT_NE(serve::pointKey(other, {"mcf"}, 20000, 5000), base);

    EXPECT_NE(serve::pointKey(cfg, {"xalancbmk"}, 20000, 5000), base);
    EXPECT_NE(serve::pointKey(cfg, {"mcf"}, 40000, 5000), base);
    EXPECT_NE(serve::pointKey(cfg, {"mcf"}, 20000, 6000), base);
}

TEST(PointKey, ExplicitDefaultBudgetsShareTheImplicitKey)
{
    SystemConfig cfg;
    EXPECT_EQ(serve::pointKey(cfg, {"mcf"}, 0, 0),
              serve::pointKey(cfg, {"mcf"}, defaultInstructions(),
                              defaultWarmup()));
}

TEST(PointKey, TraceSpecsHashContentNotName)
{
    SystemConfig cfg;
    const std::string pathA = tmpPath("trace_a") + ".tactrc";
    const std::string pathB = tmpPath("trace_b") + ".tactrc";
    // Not valid traces — pointKey hashes bytes without parsing.
    writeFile(pathA, "identical trace bytes");
    writeFile(pathB, "identical trace bytes");

    const std::string kA =
        serve::pointKey(cfg, {"trace:" + pathA}, 20000, 5000);
    // Same content under a different name: same point.
    EXPECT_EQ(kA, serve::pointKey(cfg, {"trace:" + pathB}, 20000, 5000));

    // Changed content under the same name: different point, even when
    // the size and (on a coarse clock) the mtime stay the same.
    writeFile(pathB, "different trace bytes");
    EXPECT_NE(kA, serve::pointKey(cfg, {"trace:" + pathB}, 20000, 5000));

    std::remove(pathA.c_str());
    std::remove(pathB.c_str());

    EXPECT_THROW(serve::pointKey(cfg, {"trace:" + pathA}, 20000, 5000),
                 std::runtime_error);
}

TEST(PointKey, CanonicalConfigTextIsVersionedAndComplete)
{
    SystemConfig cfg;
    const std::string text = canonicalConfigText(cfg);
    EXPECT_EQ(text.rfind("tacsim-config-v2\n", 0), 0u);
    EXPECT_NE(text.find("\nseed "), std::string::npos);

    SystemConfig other = cfg;
    other.dram.tempo = !other.dram.tempo;
    EXPECT_NE(canonicalConfigText(other), text);

    // Every composition field (sim/topology.hh) is in the text.
    const std::vector<void (*)(SystemConfig &)> toggles = {
        [](SystemConfig &c) { c.numCores = 2; },
        [](SystemConfig &c) { c.threadsPerCore = 2; },
        [](SystemConfig &c) { c.llcPerCore.ways = 8; },
        [](SystemConfig &c) { c.dram.channels = 1; },
    };
    for (std::size_t i = 0; i < toggles.size(); ++i) {
        SystemConfig changed = cfg;
        toggles[i](changed);
        EXPECT_NE(canonicalConfigText(changed), text) << "field " << i;
    }
}

} // namespace
} // namespace tacsim
