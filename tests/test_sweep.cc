/**
 * @file
 * Tests for the parallel sweep runner: determinism under parallelism
 * (parallel results identical to a serial run), per-job exception
 * capture (including a malformed point), registration-order reporting,
 * the point-key memo, strict parsing of TACSIM_JOBS and of the budget
 * variables the runner resolves at registration, and the JSON report
 * writer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/sweep.hh"
#include "test_util.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 20000;
constexpr std::uint64_t kWarm = 5000;

/** Register the same deterministic 4-point sweep on @p sw. */
void
addPoints(SweepRunner &sw)
{
    const char *specs[] = {"pr", "mcf", "canneal", "xalancbmk"};
    int i = 0;
    for (const char *spec : specs) {
        SystemConfig cfg;
        cfg.seed = 7 + i;
        sw.add("p" + std::to_string(i), cfg, {spec}, kInstr, kWarm);
        ++i;
    }
}

TEST(Sweep, ParallelMatchesSerial)
{
    SweepRunner serial(1);
    SweepRunner parallel(2);
    addPoints(serial);
    addPoints(parallel);
    serial.run();
    parallel.run();
    for (int i = 0; i < 4; ++i) {
        const std::string key = "p" + std::to_string(i);
        SCOPED_TRACE(key);
        test::expectSameResult(serial.result(key), parallel.result(key));
    }
}

TEST(Sweep, ThrowingJobIsReportedWithoutAbortingTheSweep)
{
    SweepRunner sw(2);
    sw.addCustom("boom", []() -> RunResult {
        throw std::runtime_error("diverged");
    });
    SystemConfig cfg;
    sw.add("ok", cfg, {"pr"}, kInstr, kWarm);
    // A malformed point, one spec for a 2-thread machine, fails alone
    // the same way instead of aborting the process.
    SystemConfig twoCores;
    twoCores.numCores = 2;
    sw.add("short", twoCores, {"mcf"}, kInstr, kWarm);
    sw.run();

    const SweepOutcome *bad = sw.outcome("boom");
    ASSERT_NE(bad, nullptr);
    EXPECT_FALSE(bad->ok);
    EXPECT_NE(bad->error.find("diverged"), std::string::npos);
    EXPECT_THROW(sw.result("boom"), std::runtime_error);

    const SweepOutcome *shortPoint = sw.outcome("short");
    ASSERT_NE(shortPoint, nullptr);
    EXPECT_FALSE(shortPoint->ok);
    EXPECT_NE(shortPoint->error.find("1 workload(s) for 2 hardware"),
              std::string::npos)
        << shortPoint->error;
    EXPECT_THROW(runSpecMix(twoCores, {"mcf"}, kInstr, kWarm),
                 std::invalid_argument);

    const SweepOutcome *good = sw.outcome("ok");
    ASSERT_NE(good, nullptr);
    EXPECT_TRUE(good->ok);
    EXPECT_GT(sw.result("ok").instructions, 0u);
}

TEST(Sweep, OutcomesFollowRegistrationOrder)
{
    SweepRunner sw(4);
    addPoints(sw);
    sw.run();
    const auto all = sw.outcomes();
    ASSERT_EQ(all.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(all[i]->key, "p" + std::to_string(i));
}

TEST(Sweep, AddIsMemoizedAndResultNeedsRun)
{
    SweepRunner sw(2);
    int calls = 0;
    sw.addCustom("job", [&calls] {
        ++calls;
        RunResult r;
        r.benchmark = "stub";
        r.instructions = 1;
        return r;
    });
    sw.addCustom("job", [&calls] { // duplicate key: first wins
        ++calls;
        return RunResult{};
    });
    EXPECT_EQ(sw.points(), 1u);
    // result() never executes a point: before run() it throws.
    EXPECT_THROW(sw.result("job"), std::runtime_error);
    EXPECT_EQ(calls, 0);
    sw.run();
    sw.run(); // already done: no re-execution
    EXPECT_EQ(sw.result("job").benchmark, "stub");
    EXPECT_EQ(sw.result("job").instructions, 1u);
    EXPECT_EQ(calls, 1);
    EXPECT_THROW(sw.result("unknown"), std::runtime_error);
}

TEST(Sweep, DefaultJobsReadsEnv)
{
    ::setenv("TACSIM_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 3u);
    ::setenv("TACSIM_JOBS", "0", 1); // 0: falls back to hardware
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
    // A sign or a suffix is an error, not a count.
    for (const char *bad : {"-1", "4x"}) {
        SCOPED_TRACE(bad);
        ::setenv("TACSIM_JOBS", bad, 1);
        EXPECT_THROW(SweepRunner::defaultJobs(), std::invalid_argument);
    }
    ::unsetenv("TACSIM_JOBS");
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
}

TEST(Sweep, DefaultBudgetsReadEnv)
{
    struct Budget
    {
        const char *var;
        std::uint64_t (*read)();
        std::uint64_t fallback;
    };
    for (const Budget &b : {Budget{"TACSIM_INSTRUCTIONS",
                                   defaultInstructions, 400000},
                            Budget{"TACSIM_WARMUP", defaultWarmup, 100000}}) {
        SCOPED_TRACE(b.var);
        ::setenv(b.var, "2000", 1);
        EXPECT_EQ(b.read(), 2000u);
        ::unsetenv(b.var);
        EXPECT_EQ(b.read(), b.fallback);
        ::setenv(b.var, "0", 1);
        EXPECT_EQ(b.read(), b.fallback);
        // Not counts: a suffix, an exponent, a sign, and 2^64 (overflow).
        for (const char *bad :
             {"400k", "2e6", "-1", "18446744073709551616"}) {
            SCOPED_TRACE(bad);
            ::setenv(b.var, bad, 1);
            try {
                b.read();
                ADD_FAILURE() << "no exception";
            } catch (const std::invalid_argument &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(b.var), std::string::npos) << what;
                EXPECT_NE(what.find(bad), std::string::npos) << what;
            }
        }
        ::unsetenv(b.var);
    }
}

TEST(Sweep, JsonReportIsWrittenAndWellFormed)
{
    SweepRunner sw(2);
    sw.addCustom("good \"quoted\"", [] {
        RunResult r;
        r.benchmark = "stub";
        r.instructions = 5;
        r.cycles = 10;
        r.ipc = 0.5;
        return r;
    });
    sw.addCustom("bad", []() -> RunResult {
        throw std::runtime_error("exploded \"here\"");
    });
    sw.run();

    std::vector<ReportRow> rows;
    rows.push_back({"series-a", "label-1", 1.5, 2.5, "%"});
    rows.push_back({"series-b", "label-2", 0.25, std::nan(""), "IPC"});

    const std::string path = ::testing::TempDir() + "tacsim_sweep.json";
    ASSERT_TRUE(sw.writeJson(path, "unit \"test\"", rows));

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();

    EXPECT_NE(text.find("\"schema\": \"tacsim-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"title\": \"unit \\\"test\\\"\""),
              std::string::npos);
    EXPECT_NE(text.find("\"measured\": 1.5"), std::string::npos);
    // NaN paper values must serialize as null, never bare nan.
    EXPECT_NE(text.find("\"paper\": null"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    // Both runs present, with the failure captured and escaped.
    EXPECT_NE(text.find("\"key\": \"good \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(text.find("exploded \\\"here\\\""), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
    std::remove(path.c_str());
}

TEST(Sweep, ReRegisteringANameForADifferentPointThrows)
{
    // Regression: the memo used to key on the registration name alone,
    // so this pattern silently returned the first point's result for
    // the second configuration.
    SweepRunner sw(1);
    SystemConfig cfg;
    sw.add("p", cfg, {"mcf"}, kInstr, kWarm);
    SystemConfig other;
    other.stlbEntries = cfg.stlbEntries * 2;
    EXPECT_THROW(sw.add("p", other, {"mcf"}, kInstr, kWarm),
                 std::runtime_error);
    // Identical re-registration stays a memoized no-op.
    sw.add("p", cfg, {"mcf"}, kInstr, kWarm);
    EXPECT_EQ(sw.points(), 1u);
}

TEST(Sweep, SamePointUnderTwoNamesRunsOnce)
{
    SweepRunner sw(2);
    SystemConfig cfg;
    sw.add("first", cfg, {"mcf"}, kInstr, kWarm);
    sw.add("alias", cfg, {"mcf"}, kInstr, kWarm);
    EXPECT_EQ(sw.points(), 1u);
    sw.run();
    // Both names resolve to the one result.
    test::expectSameResult(sw.result("first"), sw.result("alias"));
    const SweepOutcome *o = sw.outcome("alias");
    ASSERT_NE(o, nullptr);
    EXPECT_TRUE(o->ok);
    EXPECT_EQ(o->pointKey.size(), 64u);
}

TEST(Sweep, OutcomesCarryThePointKey)
{
    SweepRunner sw(1);
    SystemConfig cfg;
    sw.add("spec-point", cfg, {"mcf"}, kInstr, kWarm);
    sw.add("other-point", cfg, {"xalancbmk"}, kInstr, kWarm);
    sw.addCustom("custom-point", [] { return RunResult{}; });
    sw.run();

    const SweepOutcome *spec = sw.outcome("spec-point");
    const SweepOutcome *other = sw.outcome("other-point");
    const SweepOutcome *custom = sw.outcome("custom-point");
    ASSERT_NE(spec, nullptr);
    ASSERT_NE(other, nullptr);
    ASSERT_NE(custom, nullptr);
    EXPECT_EQ(spec->pointKey.size(), 64u);
    EXPECT_EQ(other->pointKey.size(), 64u);
    // Another workload is another simulation: its own identity.
    EXPECT_NE(spec->pointKey, other->pointKey);
    EXPECT_EQ(sw.points(), 3u);
    // Custom jobs have no canonical hash and never dedup.
    EXPECT_TRUE(custom->pointKey.empty());

    const std::string path =
        ::testing::TempDir() + "tacsim_sweep_pk.json";
    ASSERT_TRUE(sw.writeJson(path, "point keys", {}));
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"point_key\": \"" + spec->pointKey +
                            "\""),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"cached\": false"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Sweep, MixPointsRunThroughThePool)
{
    SweepRunner sw(2);
    SystemConfig cfg;
    cfg.numCores = 2;
    sw.add("mix", cfg, {"pr", "mcf"}, kInstr, kWarm);
    sw.run();
    const RunResult &r = sw.result("mix");
    EXPECT_EQ(r.benchmark, "pr-mcf");
    EXPECT_EQ(r.threadCycles.size(), 2u);
    // The JSON report labels the run with the result's own label.
    EXPECT_EQ(sw.outcome("mix")->benchmark, "pr-mcf");
}

} // namespace
} // namespace tacsim
