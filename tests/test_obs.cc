/**
 * @file
 * Observability tests: the metrics registry contract (naming, reset
 * hooks, the zero-after-reset audit), the stats-reset regressions the
 * registry audit exists to catch, and the two sinks — time-series
 * sampler (schema, determinism across sweep thread counts) and Chrome
 * tracer (well-formed output, monotonic timestamps per track). Also
 * asserts that enabling observability does not perturb the simulation
 * itself: the canonical stats dump is byte-identical with sinks on and
 * off; and that the registry's totals, which run results are computed
 * from, fold instances by the rule and equal the typed stats they sum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
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
#include "sim/topology.hh"

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

// --- totals: the fold rule ---

TEST(ObsTotals, IndexedAndUnindexedCountersSumUnderOneName)
{
    obs::Registry reg;
    std::uint64_t c0 = 3, c1 = 4, plain = 5, walks = 6;
    reg.addCounter("l2c.0.misses.replay", &c0);
    reg.addCounter("l2c.1.misses.replay", &c1);
    reg.addCounter("l2c.misses.replay", &plain);
    reg.addCounter("ptw.walks", &walks);

    const obs::Totals t = reg.totals();
    EXPECT_EQ(t.counter("l2c.misses.replay"), 12u);
    EXPECT_EQ(t.counter("ptw.walks"), 6u);
    EXPECT_EQ(t.counters.size(), 2u);
}

TEST(ObsTotals, OnlyTheSegmentAfterTheRootFolds)
{
    obs::Registry reg;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    reg.addCounter("ptw.reads.1", &a);  // a digit leaf is a name
    reg.addCounter("x.12.y.3", &b);     // only "12" is an index
    reg.addCounter("llc.2", &c);        // an index can end the name
    reg.addCounter("l2c.0x.hits", &d);  // not all digits: kept

    const obs::Totals t = reg.totals();
    EXPECT_EQ(t.counter("ptw.reads.1"), 1u);
    EXPECT_EQ(t.counter("x.y.3"), 2u);
    EXPECT_EQ(t.counter("llc"), 3u);
    EXPECT_EQ(t.counter("l2c.0x.hits"), 4u);
}

TEST(ObsTotals, HistogramsMergeCountsSumsMaximaAndBuckets)
{
    obs::Registry reg;
    Histogram h0({10, 50}), h1({10, 50});
    h0.add(5);
    h0.add(20);
    h1.add(60); // the maximum comes from the second instance
    h1.add(7);
    reg.addHistogram("core.0.stall_per_walk", &h0);
    reg.addHistogram("core.1.stall_per_walk", &h1);

    const obs::Totals t = reg.totals();
    const Histogram &m = t.histogram("core.stall_per_walk");
    EXPECT_EQ(m.count(), 4u);
    EXPECT_EQ(m.sum(), 92u);
    EXPECT_EQ(m.max(), 60u);
    EXPECT_EQ(m.bucketCount(0), 2u); // <=10
    EXPECT_EQ(m.bucketCount(1), 1u); // <=50
    EXPECT_EQ(m.bucketCount(2), 1u); // overflow
}

TEST(ObsTotals, HistogramsWithDifferentBoundsAreNotMerged)
{
    obs::Registry reg;
    Histogram h0({10, 50}), h1({10, 100});
    reg.addHistogram("core.0.stall_per_walk", &h0);
    reg.addHistogram("core.1.stall_per_walk", &h1);
    EXPECT_THROW(reg.totals(), std::invalid_argument);
}

TEST(ObsTotals, GaugesAreNotTotals)
{
    obs::Registry reg;
    std::uint64_t hits = 1;
    reg.addCounter("llc.hits.replay", &hits);
    reg.addGauge("llc.repl.tship.psel", [] { return 512.0; });

    const obs::Totals t = reg.totals();
    EXPECT_EQ(t.counters.count("llc.repl.tship.psel"), 0u);
    EXPECT_EQ(t.counters.size(), 1u);
    EXPECT_TRUE(t.histograms.empty());
}

TEST(ObsTotals, AnUnregisteredNameThrowsNamingItself)
{
    obs::Registry reg;
    std::uint64_t misses = 1;
    Histogram h;
    reg.addCounter("llc.misses.replay", &misses);
    reg.addHistogram("llc.recall.replay", &h);
    const obs::Totals t = reg.totals();

    for (const char *name : {"llc.misses.replays", "llc.recall.replay"}) {
        try {
            t.counter(name);
            ADD_FAILURE() << name << " read as a counter";
        } catch (const std::out_of_range &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(t.histogram("llc.misses.replay"), std::out_of_range);
}

// --- totals on a real machine ---

/** Sum of @p get over @p n instances. */
template <typename Get>
std::uint64_t
sumOver(std::size_t n, Get get)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += get(i);
    return total;
}

/** Every counter of the cache level @p root ("l2c") in @p t against
 *  its CacheStats summed over @p level's @p n instances. */
template <typename Level>
void
expectCacheTotals(const obs::Totals &t, const std::string &root,
                  std::size_t n, Level level)
{
    static const char *const kCat[kNumBlockCats] = {
        "nonreplay", "replay", "pt_leaf", "pt_upper", "prefetch",
        "writeback",
    };
    for (std::size_t c = 0; c < kNumBlockCats; ++c) {
        const std::string cat = std::string(".") + kCat[c];
        EXPECT_EQ(t.counter(root + ".accesses" + cat),
                  sumOver(n, [&](std::size_t i) {
                      return level(i).stats().accesses[c];
                  }));
        EXPECT_EQ(t.counter(root + ".hits" + cat),
                  sumOver(n, [&](std::size_t i) {
                      return level(i).stats().hits[c];
                  }));
        EXPECT_EQ(t.counter(root + ".misses" + cat),
                  sumOver(n, [&](std::size_t i) {
                      return level(i).stats().misses[c];
                  }));
    }
    const std::pair<const char *, std::uint64_t CacheStats::*> fields[] = {
        {"fills", &CacheStats::fills},
        {"mshr.merges", &CacheStats::mshrMerges},
        {"pf.issued", &CacheStats::prefetchIssued},
        {"pf.useful", &CacheStats::prefetchUseful},
        {"atp.issued", &CacheStats::atpIssued},
        {"atp.useful", &CacheStats::atpUseful},
        {"tempo.useful", &CacheStats::tempoUseful},
        {"arb.mshr_deferred", &CacheStats::arbMshrDeferred},
        {"arb.bw_deferred", &CacheStats::arbBwDeferred},
    };
    for (const auto &[name, field] : fields)
        EXPECT_EQ(t.counter(root + "." + name),
                  sumOver(n, [&](std::size_t i) {
                      return level(i).stats().*field;
                  }))
            << root << "." << name;
}

TEST(ObsTotals, EqualTheTypedStatsOfEveryInstance)
{
    // 4 cores x 2 SMT threads, 2 LLC slices, the full proposal, both
    // recall profilers, nested translation and IPCP/SPP prefetchers:
    // every component root but dram and noc is indexed, and every
    // optional metric family is registered. No golden covers SMT, so
    // the typed stats are the reference.
    SystemConfig cfg = configFromTopology(
        "cores=4,smt=2,slices=2,slice_lat=2,mshr_quota=16,bw=32");
    TranslationAwareOptions ta;
    ta.tempo = true;
    applyTranslationAware(cfg, ta);
    cfg.profileCacheRecall = true;
    cfg.profileStlbRecall = true;
    cfg.vm.nested = true;
    cfg.l1Prefetcher = PrefetcherKind::Ipcp;
    cfg.l2Prefetcher = PrefetcherKind::Spp;
    std::vector<std::unique_ptr<Workload>> w;
    for (unsigned th = 0; th < cfg.threads(); ++th)
        w.push_back(makeWorkload(
            kAllBenchmarks[th % kAllBenchmarks.size()], cfg.seed + th));
    System sys(cfg, std::move(w));
    sys.warmup(2000);
    sys.run(20000);

    // The fold rule reads an all-digit second segment as an instance
    // index, so no other segment of a registered name may be one.
    for (const std::string &col : sys.metrics().columns()) {
        std::istringstream parts(col);
        std::string part;
        for (int seg = 0; std::getline(parts, part, '.'); ++seg) {
            if (seg != 1) {
                EXPECT_NE(part.find_first_not_of("0123456789"),
                          std::string::npos)
                    << col;
            }
        }
    }

    const obs::Totals t = sys.metrics().totals();
    const std::size_t cores = cfg.numCores, threads = sys.threads(),
                      slices = sys.llcSlices();
    expectCacheTotals(t, "llc", slices,
                      [&](std::size_t i) -> Cache & { return sys.llc(i); });
    expectCacheTotals(t, "l2c", cores,
                      [&](std::size_t i) -> Cache & { return sys.l2(i); });
    expectCacheTotals(t, "l1d", cores,
                      [&](std::size_t i) -> Cache & { return sys.l1d(i); });

    const std::pair<const char *, std::uint64_t PtwStats::*> ptw[] = {
        {"walks", &PtwStats::walks},
        {"merged", &PtwStats::merged},
        {"host_walks", &PtwStats::hostWalks},
        {"leaf_from.l1d", &PtwStats::leafFromL1D},
        {"leaf_from.l2c", &PtwStats::leafFromL2C},
        {"leaf_from.llc", &PtwStats::leafFromLLC},
        {"leaf_from.dram", &PtwStats::leafFromDram},
        {"leaf_from.ideal", &PtwStats::leafFromIdeal},
    };
    for (const auto &[name, field] : ptw)
        EXPECT_EQ(t.counter(std::string("ptw.") + name),
                  sumOver(cores, [&](std::size_t c) {
                      return sys.ptw(c).stats().*field;
                  }))
            << name;

    const std::pair<const char *, std::uint64_t TlbStats::*> stlb[] = {
        {"accesses", &TlbStats::accesses},
        {"hits", &TlbStats::hits},
        {"misses", &TlbStats::misses},
    };
    for (const auto &[name, field] : stlb)
        EXPECT_EQ(t.counter(std::string("stlb.") + name),
                  sumOver(cores, [&](std::size_t c) {
                      return sys.stlb(c).stats().*field;
                  }))
            << name;

    const std::pair<const char *, std::uint64_t CoreStats::*> core[] = {
        {"retired", &CoreStats::retired},
        {"stall_cycles.translation", &CoreStats::stallCyclesT},
        {"stall_cycles.replay", &CoreStats::stallCyclesR},
        {"stall_cycles.other", &CoreStats::stallCyclesN},
    };
    for (const auto &[name, field] : core)
        EXPECT_EQ(t.counter(std::string("core.") + name),
                  sumOver(threads, [&](std::size_t th) {
                      return sys.core(th).stats().*field;
                  }))
            << name;
    const Histogram &perWalk = t.histogram("core.stall_per_walk");
    EXPECT_EQ(perWalk.count(), sumOver(threads, [&](std::size_t th) {
                  return sys.core(th).stats().stallPerWalk.count();
              }));
    EXPECT_EQ(perWalk.sum(), sumOver(threads, [&](std::size_t th) {
                  return sys.core(th).stats().stallPerWalk.sum();
              }));
    std::uint64_t maxPerWalk = 0;
    for (std::size_t th = 0; th < threads; ++th)
        maxPerWalk =
            std::max(maxPerWalk, sys.core(th).stats().stallPerWalk.max());
    EXPECT_EQ(perWalk.max(), maxPerWalk);

    EXPECT_EQ(t.histogram("llc.recall.translation").count(),
              sumOver(slices, [&](std::size_t s) {
                  return sys.llc(s).recallProfiler()->translationHist()
                      .count();
              }));
    EXPECT_EQ(t.histogram("l2c.recall.replay").count(),
              sumOver(cores, [&](std::size_t c) {
                  return sys.l2(c).recallProfiler()->replayHist().count();
              }));
    EXPECT_EQ(t.histogram("l2c.recall.data").count(),
              sumOver(cores, [&](std::size_t c) {
                  return sys.l2(c).recallProfiler()->nonReplayHist()
                      .count();
              }));
    EXPECT_EQ(t.histogram("stlb.recall.translation").count(),
              sumOver(cores, [&](std::size_t c) {
                  return sys.stlb(c).recallProfiler()->translationHist()
                      .count();
              }));

    // The run did the work the comparisons above are about.
    EXPECT_GT(t.counter("ptw.walks"), 0u);
    EXPECT_GT(t.counter("llc.misses.replay"), 0u);
    EXPECT_GT(t.counter("l2c.atp.issued"), 0u);
    EXPECT_GT(t.counter("ptw.host_walks"), 0u);
    EXPECT_GT(t.counter("l2c.pf.issued"), 0u);
    EXPECT_GT(t.histogram("stlb.recall.translation").count(), 0u);

    // collectResult reads the same totals and carries only the recall
    // histograms.
    const RunResult r = collectResult(sys, "mix");
    EXPECT_EQ(r.stallT, t.counter("core.stall_cycles.translation"));
    EXPECT_EQ(r.atpIssued,
              t.counter("l2c.atp.issued") + t.counter("llc.atp.issued"));
    ASSERT_EQ(r.recall.size(), 7u);
    for (const auto &[name, h] : r.recall)
        EXPECT_NE(name.find(".recall."), std::string::npos) << name;
    EXPECT_EQ(r.recall.at("stlb.recall.translation").count(),
              t.histogram("stlb.recall.translation").count());
}

TEST(ObsTotals, ADefaultRunCarriesNoHistogram)
{
    EXPECT_TRUE(runSpecMix(SystemConfig{}, {"mcf"}, 2000, 500)
                    .recall.empty());
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
