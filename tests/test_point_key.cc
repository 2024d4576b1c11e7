/**
 * @file
 * Tests for the canonical point hash (serve/point_key.hh) and its
 * SHA-256 primitive: NIST vectors, stability of the key, sensitivity
 * to exactly the inputs that determine a simulation's outcome (config,
 * workload content, budgets) — and insensitivity to everything else
 * (trace file names, explicitly-spelled default budgets).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "serve/point_key.hh"
#include "serve/sha256.hh"
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

/** True iff @p s has a point key's shape: 64 lowercase hex chars. */
bool
isHexKey(const std::string &s)
{
    return s.size() == 64 &&
        std::all_of(s.begin(), s.end(), [](char c) {
               return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
           });
}

TEST(Sha256, NistVectors)
{
    // FIPS 180-4 examples.
    EXPECT_EQ(serve::sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(serve::sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(serve::sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                               "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string msg(1000, 'a');
    serve::Sha256 h;
    for (std::size_t i = 0; i < msg.size(); i += 7)
        h.update(msg.data() + i, std::min<std::size_t>(7,
                                                       msg.size() - i));
    EXPECT_EQ(h.hexDigest(), serve::sha256Hex(msg));
}

TEST(Sha256, FileDigestMatchesBytes)
{
    const std::string path = tmpPath("sha_file");
    const std::string bytes = "tacsim sha256 file digest\n";
    writeFile(path, bytes);
    EXPECT_EQ(serve::sha256FileHex(path), serve::sha256Hex(bytes));
    std::remove(path.c_str());
    EXPECT_THROW(serve::sha256FileHex(path), std::runtime_error);
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

TEST(PointKey, WarmKeyIgnoresMeasuredBudget)
{
    SystemConfig cfg;
    const std::vector<std::string> specs(cfg.threads(), "mcf");
    const std::string w = serve::warmKey(cfg, specs, 5000);
    EXPECT_TRUE(isHexKey(w)) << w;
    EXPECT_EQ(w, serve::warmKey(cfg, specs, 5000));
    EXPECT_NE(w, serve::warmKey(cfg, specs, 6000));
    // warmKey must differ from every pointKey for the same inputs.
    EXPECT_NE(w, serve::pointKey(cfg, specs, 20000, 5000));
}

TEST(PointKey, CanonicalConfigTextIsVersionedAndComplete)
{
    SystemConfig cfg;
    const std::string text = canonicalConfigText(cfg);
    EXPECT_EQ(text.rfind("tacsim-config-v2\n", 0), 0u);
    EXPECT_NE(text.find("\nseed "), std::string::npos);

    SystemConfig other = cfg;
    other.tempo = !other.tempo;
    EXPECT_NE(canonicalConfigText(other), text);
}

} // namespace
} // namespace tacsim
