/**
 * @file
 * Observability tests: the metrics registry contract (naming, reset
 * hooks, the zero-after-reset audit), the stats-reset regressions the
 * registry audit exists to catch, and the two sinks — time-series
 * sampler (schema, determinism across sweep thread counts) and Chrome
 * tracer (well-formed output, monotonic timestamps per track). Also
 * asserts that enabling observability does not perturb the simulation
 * itself: the canonical stats dump is byte-identical with sinks on and
 * off.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/path.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 40000;
constexpr std::uint64_t kWarm = 10000;

std::string
tmpPath(const std::string &stem, const std::string &ext)
{
    return ::testing::TempDir() + "tacsim_obs_" + stem + "_" +
        std::to_string(::getpid()) + ext;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

System
makeSystem(const SystemConfig &cfg, Benchmark b = Benchmark::pr)
{
    std::vector<std::unique_ptr<Workload>> w;
    for (unsigned t = 0; t < cfg.threads(); ++t)
        w.push_back(makeWorkload(b, cfg.seed + t));
    return System(cfg, std::move(w));
}

// --- registry contract ---

TEST(ObsRegistry, CounterGaugeHistogramColumns)
{
    obs::Registry reg;
    std::uint64_t hits = 7;
    double level = 1.5;
    Histogram h({10, 100});
    h.add(5);
    h.add(200);

    reg.addCounter("l2c.hits", &hits);
    reg.addGauge("l2c.repl.psel", [&level] { return level; });
    reg.addHistogram("l2c.lat", &h);
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_TRUE(reg.has("l2c.hits"));
    EXPECT_FALSE(reg.has("l2c.misses"));

    // Histograms expand to count/mean/max plus one column per bucket
    // (two bounds -> three buckets with the overflow bucket).
    const std::vector<std::string> cols = reg.columns();
    const std::vector<std::string> want = {
        "l2c.hits",        "l2c.repl.psel",   "l2c.lat.count",
        "l2c.lat.mean",    "l2c.lat.max",     "l2c.lat.bucket0",
        "l2c.lat.bucket1", "l2c.lat.bucket2",
    };
    EXPECT_EQ(cols, want);

    std::vector<obs::Registry::Value> vals;
    reg.sampleInto(vals);
    ASSERT_EQ(vals.size(), cols.size());
    EXPECT_EQ(vals[0].u, 7u);
    EXPECT_DOUBLE_EQ(vals[1].d, 1.5);
    EXPECT_EQ(vals[2].u, 2u);          // count
    EXPECT_DOUBLE_EQ(vals[3].d, 102.5); // mean
    EXPECT_EQ(vals[4].u, 200u);        // max
    EXPECT_EQ(vals[5].u, 1u);          // <=10
    EXPECT_EQ(vals[6].u, 0u);          // <=100
    EXPECT_EQ(vals[7].u, 1u);          // overflow

    // The live pointers mean a dump sees updates without re-sampling.
    hits = 8;
    EXPECT_NE(reg.dumpText().find("l2c.hits 8\n"), std::string::npos);
}

TEST(ObsRegistry, ResetHooksAndAudit)
{
    obs::Registry reg;
    std::uint64_t ctr = 3;
    Histogram h;
    h.add(42);
    double gauge = 9;

    reg.addCounter("a.ctr", &ctr);
    reg.addHistogram("a.hist", &h);
    reg.addGauge("a.gauge", [&gauge] { return gauge; });
    reg.addResetHook([&ctr, &h] {
        ctr = 0;
        h.reset();
    });

    auto bad = reg.nonZeroAfterReset();
    ASSERT_EQ(bad.size(), 2u); // counter + histogram; gauge exempt
    EXPECT_EQ(bad[0], "a.ctr");
    EXPECT_EQ(bad[1], "a.hist");

    reg.resetAll();
    EXPECT_TRUE(reg.nonZeroAfterReset().empty());
    EXPECT_DOUBLE_EQ(gauge, 9.0); // gauges survive reset by design
}

TEST(ObsRegistryDeathTest, RejectsDuplicateAndInvalidNames)
{
    obs::Registry reg;
    std::uint64_t v = 0;
    reg.addCounter("dup.name", &v);
    EXPECT_DEATH_IF_SUPPORTED(reg.addCounter("dup.name", &v),
                              "duplicate metric name");
    EXPECT_DEATH_IF_SUPPORTED(reg.addCounter("Bad Name", &v),
                              "metric names");
}

TEST(ObsPath, SanitizeAndExpand)
{
    EXPECT_EQ(obs::sanitizeKey("mcf/proposed"), "mcf_proposed");
    EXPECT_EQ(obs::sanitizeKey("a.b-c_1"), "a.b-c_1");
    EXPECT_EQ(obs::expandPointPath("out/{key}.jsonl", "mcf/base"),
              "out/mcf_base.jsonl");
    EXPECT_EQ(obs::expandPointPath("{key}/{key}.json", "x"), "x/x.json");
    EXPECT_EQ(obs::expandPointPath("plain.jsonl", "x"), "plain.jsonl");
    EXPECT_EQ(obs::expandPointPath("", "x"), "");
}

// --- stats reset regressions ---

// Every counter and histogram in the hierarchy must return to zero on
// resetStats(). This is the regression net for stats that used to
// survive warm-up: the recall profilers (Cache/Tlb resetStats never
// cleared them) and the dead-block wrapper's bypass counter.
TEST(ObsReset, EveryConfiguredStatZeroAfterReset)
{
    SystemConfig profiled{};
    profiled.profileCacheRecall = true;
    profiled.profileStlbRecall = true;
    profiled.llcDeadBlock = true;

    SystemConfig csalt{};
    csalt.llcCsalt = true;

    SystemConfig proposed{};
    TranslationAwareOptions ta;
    ta.tempo = true;
    applyTranslationAware(proposed, ta);

    for (const SystemConfig *cfg : {&profiled, &csalt, &proposed}) {
        System sys = makeSystem(*cfg);
        sys.run(kInstr);
        EXPECT_FALSE(sys.metrics().nonZeroAfterReset().empty())
            << "run should have produced nonzero stats";
        sys.resetStats();
        const auto bad = sys.metrics().nonZeroAfterReset();
        EXPECT_TRUE(bad.empty())
            << bad.size() << " stats survived resetStats, first: "
            << bad.front();
    }
}

TEST(ObsReset, WarmupEqualsRunPlusReset)
{
    const SystemConfig cfg{};

    System a = makeSystem(cfg);
    a.warmup(kWarm);
    a.run(kInstr);

    System b = makeSystem(cfg);
    b.run(kWarm);
    b.resetStats();
    b.run(kInstr);

    EXPECT_EQ(dumpRunResult(collectResult(a, "x")),
              dumpRunResult(collectResult(b, "x")));
    EXPECT_EQ(dumpFullStats(a), dumpFullStats(b));
}

TEST(ObsReset, CollectResultIsIdempotent)
{
    SystemConfig cfg{};
    System sys = makeSystem(cfg);
    sys.warmup(kWarm);
    sys.run(kInstr);
    // Collecting results reads stats without consuming them: a second
    // collection (e.g. a retry after a failed report write) must match.
    const std::string once = dumpRunResult(collectResult(sys, "x"));
    const std::string twice = dumpRunResult(collectResult(sys, "x"));
    EXPECT_EQ(once, twice);
    EXPECT_EQ(dumpFullStats(sys), dumpFullStats(sys));
}

// --- sinks ---

TEST(ObsSampler, TimeseriesSchemaAndSamples)
{
    const std::string path = tmpPath("ts", ".jsonl");
    SystemConfig cfg{};
    cfg.obs.sampleInterval = 5000;
    cfg.obs.timeseriesPath = path;
    cfg.obs.label = "schema-test";
    {
        System sys = makeSystem(cfg);
        sys.warmup(kWarm);
        sys.run(kInstr);
    } // destructor flushes the final sample

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"schema\":\"tacsim-timeseries-v1\""),
              std::string::npos);
    EXPECT_NE(line.find("\"label\":\"schema-test\""), std::string::npos);
    EXPECT_NE(line.find("\"interval\":5000"), std::string::npos);

    std::size_t samples = 0, resets = 0;
    while (std::getline(in, line)) {
        if (line.find("\"event\":\"reset\"") != std::string::npos)
            ++resets;
        else if (line.rfind("{\"i\":", 0) == 0)
            ++samples;
        else
            FAIL() << "unexpected line: " << line;
    }
    EXPECT_EQ(resets, 1u); // the warmup boundary
    // kWarm + kInstr instructions at interval 5000, plus the final
    // flush; boundary samples make the exact count budget-dependent.
    EXPECT_GE(samples, (kWarm + kInstr) / 5000 - 1);
    std::remove(path.c_str());
}

TEST(ObsSampler, HeaderEscapesControlBytesInTheLabel)
{
    // A tab in the label must reach the header as \t, not vanish.
    const std::string path = tmpPath("label", ".jsonl");
    {
        obs::Registry registry;
        obs::Sampler sampler(registry, path, 100, "a\tb");
    }
    const std::string header = readFile(path);
    EXPECT_NE(header.find("\"label\":\"a\\tb\""), std::string::npos)
        << header;
    std::remove(path.c_str());
}

TEST(ObsSampler, SinksDoNotPerturbSimulation)
{
    SystemConfig plain{};
    TranslationAwareOptions ta;
    ta.tempo = true;
    applyTranslationAware(plain, ta);

    SystemConfig traced = plain;
    traced.obs.sampleInterval = 4000;
    traced.obs.timeseriesPath = tmpPath("perturb", ".jsonl");
    traced.obs.chromeTracePath = tmpPath("perturb", ".json");

    System a = makeSystem(plain);
    a.warmup(kWarm);
    a.run(kInstr);
    const std::string dumpA = dumpRunResult(collectResult(a, "x"));
    const std::string fullA = dumpFullStats(a);

    System b = makeSystem(traced);
    b.warmup(kWarm);
    b.run(kInstr);
    EXPECT_EQ(dumpA, dumpRunResult(collectResult(b, "x")));
    EXPECT_EQ(fullA, dumpFullStats(b));

    std::remove(traced.obs.timeseriesPath.c_str());
    std::remove(traced.obs.chromeTracePath.c_str());
}

TEST(ObsSampler, SweepDeterministicAcrossJobs)
{
    // The same two points swept serially and on a 4-thread pool must
    // produce byte-identical time-series files: {key} expansion gives
    // every point its own output path, so parallel points never share a
    // file.
    const std::string serialPat = tmpPath("serial_{key}", ".jsonl");
    const std::string parallelPat = tmpPath("par_{key}", ".jsonl");

    auto sweepWith = [&](unsigned jobs, const std::string &pattern) {
        SystemConfig cfg{};
        cfg.obs.sampleInterval = 5000;
        cfg.obs.timeseriesPath = pattern;
        SweepRunner sweep(jobs);
        for (const char *spec : {"pr", "mcf"})
            sweep.add(std::string(spec) + "/base", cfg, {spec}, kInstr,
                      kWarm);
        sweep.run();
    };
    sweepWith(1, serialPat);
    sweepWith(4, parallelPat);

    for (const char *bench : {"pr", "mcf"}) {
        const std::string key = std::string(bench) + "/base";
        const std::string serialPath =
            obs::expandPointPath(serialPat, key);
        const std::string parallelPath =
            obs::expandPointPath(parallelPat, key);
        const std::string serial = readFile(serialPath);
        EXPECT_FALSE(serial.empty());
        EXPECT_EQ(serial, readFile(parallelPath)) << key;
        std::remove(serialPath.c_str());
        std::remove(parallelPath.c_str());
    }
}

TEST(ObsTrace, ChromeTraceWellFormedAndMonotonic)
{
    const std::string path = tmpPath("chrome", ".json");
    SystemConfig cfg{};
    TranslationAwareOptions ta;
    ta.tempo = true;
    applyTranslationAware(cfg, ta);
    cfg.obs.chromeTracePath = path;
    {
        System sys = makeSystem(cfg);
        sys.warmup(kWarm);
        sys.run(kInstr);
    } // destructor writes the trace

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "{\"traceEvents\":[");

    // One event object per line; verify per-track timestamp ordering
    // (what Perfetto's importer requires) and count the event kinds.
    std::map<unsigned, unsigned long long> lastTs;
    std::size_t spans = 0, counters = 0, instants = 0;
    while (std::getline(in, line)) {
        if (line.rfind("{\"ph\":", 0) != 0)
            continue; // trailer lines ("],", "displayTimeUnit", ...)
        unsigned tid = 0;
        unsigned long long ts = 0;
        if (line.find("\"ph\":\"M\"") != std::string::npos)
            continue; // metadata carries no timestamp
        ASSERT_EQ(std::sscanf(line.c_str(),
                              "{\"ph\":\"%*[XCi]\",\"pid\":0,"
                              "\"tid\":%u,\"ts\":%llu",
                              &tid, &ts),
                  2)
            << line;
        auto it = lastTs.find(tid);
        if (it != lastTs.end()) {
            EXPECT_LE(it->second, ts) << "track " << tid;
        }
        lastTs[tid] = ts;
        spans += line.find("\"ph\":\"X\"") != std::string::npos;
        counters += line.find("\"ph\":\"C\"") != std::string::npos;
        instants += line.find("\"ph\":\"i\"") != std::string::npos;
    }
    EXPECT_GT(spans, 0u) << "expected walk/replay-load spans";
    EXPECT_GT(counters, 0u) << "expected MSHR occupancy counters";
    EXPECT_GT(instants, 0u) << "expected DRAM row events";
    const std::string whole = readFile(path);
    EXPECT_NE(whole.find("\"tacsimDroppedEvents\":0"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace tacsim
