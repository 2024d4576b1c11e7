/**
 * @file
 * tacsim-bench: the repository's benchmark program (see perfbench/README.md).
 *
 *   tacsim-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--out-dir DIR]
 *
 * --trace 0 repeats the workload's point set in rounds for S seconds and
 * reports the end-to-end metrics (per point the median of its rounds,
 * rescaled to the reference host speed by the host probe, summed).
 * --trace 1 runs the point set once untraced and once with host-time
 * spans, then repeats the isolated layer drives for S seconds, and
 * reports the per-layer metrics. Either way the last stdout line is one
 * JSON object {"correct", "attempted", "failed", "metrics"}; earlier
 * lines start with "# " and carry the host record, the stats digest and
 * the checks.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "build_guard.hh"
#include "common/host.hh"
#include "host_probe.hh"
#include "layers.hh"
#include "points.hh"
#include "span_trace.hh"

using namespace perfbench;

namespace {

/** The default seed. Performance claims must also hold on the held-out
 *  seed 97, which tuning never looks at (README.md). */
constexpr std::uint64_t kDefaultSeed = 1;
/** A point that makes no progress for this long is declared stuck. */
constexpr double kStuckSeconds = 60;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    int trace = 0;
    std::string outDir = ".bench_build/out";
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(stderr,
                 "usage: tacsim-bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n");
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            o.trace = std::atoi(value().c_str());
        } else if (arg == "--out-dir") {
            o.outDir = value();
        } else {
            usage(arg == "--help" ? 0 : 2);
        }
    }
    if (o.workload.empty() || o.seconds <= 0 ||
        (o.trace != 0 && o.trace != 1))
        usage(2);
    return o;
}

/**
 * Declares the run failed if no point finishes for kStuckSeconds (a
 * simulator deadlock that spins instead of throwing): prints a failing
 * result line and ends the process.
 */
class Watchdog
{
  public:
    Watchdog() : last_(Clock::now()), thread_([this] { loop(); }) {}

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> g(m_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void
    progress(std::uint64_t attempted)
    {
        std::lock_guard<std::mutex> g(m_);
        last_ = Clock::now();
        attempted_ = attempted;
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> g(m_);
        while (!stop_) {
            cv_.wait_for(g, std::chrono::seconds(1));
            if (!stop_ && secondsBetween(last_, Clock::now()) >
                              kStuckSeconds) {
                std::printf("# error: no point finished in %.0f s\n"
                            "{\"correct\": false, \"attempted\": %llu, "
                            "\"failed\": 1, \"metrics\": {}}\n",
                            kStuckSeconds,
                            static_cast<unsigned long long>(attempted_ + 1));
                std::fflush(stdout);
                std::_Exit(0);
            }
        }
    }

    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    Clock::time_point last_;
    std::uint64_t attempted_ = 0;
    std::thread thread_;
};

/**
 * Moves the calling thread to the next of the CPUs it may run on, one per
 * call, and restores its affinity when destroyed. On a shared host one
 * CPU can run slow for many seconds (a busy neighbour on its physical
 * core); rounds spread over every CPU keep such a CPU from holding all
 * of a point's repeats.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** One pass over a workload's points. */
struct Round
{
    std::vector<PhaseTimes> times; ///< per point, zero where it failed
    std::vector<double> probes;    ///< probe seconds after each point
    double wall = 0;
    LayerCounts counts;
    std::uint64_t digest = 0;
    std::vector<tacsim::RunResult> results;
};

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    void
    fail(const std::string &what)
    {
        ++failed;
        correct = false;
        std::printf("# FAILED: %s\n", what.c_str());
    }
};

/**
 * One pass over @p w's points. With @p probe, the probe runs before the
 * first point and after every point, and each point's times are rescaled
 * to the reference host speed by the mean of the two probes around it.
 */
Round
runRound(const WorkloadDef &w, SpanTrace *spans, Tally &tally,
         Watchdog &dog, HostProbe *probe = nullptr)
{
    Round r;
    r.digest = fnv1a(w.name);
    const auto t0 = Clock::now();
    double before = probe ? probe->run() : 0;
    for (const Point &p : w.points) {
        PointOutcome o = drivePoint(p, spans);
        if (probe) {
            const double after = probe->run();
            r.probes.push_back(after);
            o.times = o.times.scaled(2 * kProbeReferenceSeconds /
                                     (before + after));
            before = after;
        }
        ++tally.attempted;
        dog.progress(tally.attempted);
        r.times.push_back(o.times);
        if (!o.ok) {
            tally.fail(p.key + ": " + o.error);
            continue;
        }
        r.counts.add(o.counts);
        r.digest = fnv1a(p.key + "\n" + o.resultDump + o.fullStats,
                         r.digest);
        r.results.push_back(o.result);
    }
    r.wall = secondsBetween(t0, Clock::now());
    return r;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** |geomean speedup of kPaperStep over baseline - the paper's figure|,
 *  in pp, over the points of @p w; NaN when a point of @p r failed. */
double
paperGapPp(const WorkloadDef &w, const Round &r)
{
    if (r.results.size() != w.points.size())
        return NAN;
    auto group = [](const std::string &key) {
        return key.substr(0, key.rfind('/'));
    };
    double logSum = 0;
    int n = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (w.points[i].config != kPaperStep)
            continue;
        for (std::size_t j = 0; j < w.points.size(); ++j) {
            if (w.points[j].config == "baseline" &&
                group(w.points[j].key) == group(w.points[i].key)) {
                logSum +=
                    std::log(tacsim::speedup(r.results[j], r.results[i]));
                ++n;
            }
        }
    }
    if (n == 0)
        return NAN;
    const double pct = (std::exp(logSum / n) - 1) * 100;
    return std::fabs(pct - kPaperSpeedupPct);
}

/** Phase-split drive vs runSpecMix on the workload's first point. */
void
checkEquivalence(const WorkloadDef &w, Tally &tally, Watchdog &dog)
{
    const Point &p = w.points.front();
    const std::vector<std::string> diffs = equivalenceDiffs(p);
    ++tally.attempted;
    dog.progress(tally.attempted);
    if (!diffs.empty())
        tally.fail("equivalence " + p.key + ": " + diffs.front());
    else
        std::printf("# equivalence %s: phase-split drive == runSpecMix\n",
                    p.key.c_str());
}

class MetricWriter
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        text_ += (text_.empty() ? "" : ", ") + ("\"" + name + "\": ") +
            "{\"value\": " + (std::isfinite(value) ? buf : "null") +
            ", \"unit\": \"" + unit + "\"}";
        if (!std::isfinite(value))
            finite_ = false;
    }
    const std::string &text() const { return text_; }
    bool finite() const { return finite_; }

  private:
    std::string text_;
    bool finite_ = true;
};

void
endToEnd(const WorkloadDef &w, const Options &opt, Tally &tally,
         Watchdog &dog, MetricWriter &mw)
{
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    std::vector<Round> rounds;
    CpuRotation cpus;
    HostProbe probe;
    // At least three rounds, so that every point has repeats.
    while (rounds.size() < 3 || Clock::now() < deadline) {
        cpus.next();
        rounds.push_back(runRound(w, nullptr, tally, dog, &probe));
        if (rounds.back().digest != rounds.front().digest)
            tally.fail("round " + std::to_string(rounds.size()) +
                       " stats digest differs from round 1");
    }
    // Per point, the median of its rescaled times over the rounds; then
    // summed over points. The rescaling takes out the host's drift, and
    // the median the bursts the probe missed.
    auto sumOfMedians = [&](double PhaseTimes::*phase) {
        double total = 0;
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            std::vector<double> v;
            for (const Round &r : rounds)
                v.push_back(r.times[i].*phase);
            total += median(v);
        }
        return total;
    };
    std::vector<double> probes;
    for (const Round &r : rounds)
        probes.insert(probes.end(), r.probes.begin(), r.probes.end());
    std::printf("# rounds %zu, stats digest %016llx\n", rounds.size(),
                static_cast<unsigned long long>(rounds.front().digest));
    std::printf("# host probe: median %.6f s, reference %.6f s\n",
                median(probes), kProbeReferenceSeconds);
    mw.add("sim_kips",
           double(rounds.front().counts.instructions) / 1000.0 /
               sumOfMedians(&PhaseTimes::measure),
           "kilo-instr/s");
    mw.add("wall_s", sumOfMedians(&PhaseTimes::wall), "s");
    mw.add("setup_s", sumOfMedians(&PhaseTimes::setup), "s");
    mw.add("warmup_s", sumOfMedians(&PhaseTimes::warmup), "s");
    mw.add("peak_rss_mb", double(tacsim::peakRssKb()) / 1024.0, "MiB");

    // The paper comparison is a property of the simulator, so it is
    // always taken on fig14-1c at the reference seed: another seed is
    // another draw of the synthetic inputs and moves the speedup by whole
    // points, and the other workloads have no paper reference at all.
    if (w.name == "fig14-1c" && opt.seed == kDefaultSeed) {
        mw.add("paper_gap_pp", paperGapPp(w, rounds.front()), "pp");
    } else {
        WorkloadDef ref = makeWorkloadDef("fig14-1c", kDefaultSeed);
        std::erase_if(ref.points, [](const Point &p) {
            return p.config != "baseline" && p.config != kPaperStep;
        });
        mw.add("paper_gap_pp",
               paperGapPp(ref, runRound(ref, nullptr, tally, dog)), "pp");
    }
}

void
perLayer(const WorkloadDef &w, const Options &opt, Tally &tally,
         Watchdog &dog, MetricWriter &mw)
{
    const Round plain = runRound(w, nullptr, tally, dog);
    SpanTrace spans;
    const Round traced = runRound(w, &spans, tally, dog);
    if (traced.digest != plain.digest)
        tally.fail("traced round changed the stats digest");
    std::printf("# stats digest %016llx\n",
                static_cast<unsigned long long>(plain.digest));

    LayerDrives drives(w);
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    std::vector<LayerCosts> passes;
    while (passes.size() < 3 || Clock::now() < deadline) {
        passes.push_back(drives.measure(passes.empty() ? &spans : nullptr));
        dog.progress(tally.attempted);
    }
    auto med = [&](double LayerCosts::*f) {
        std::vector<double> v;
        for (const LayerCosts &c : passes)
            v.push_back(c.*f);
        return median(v);
    };
    LayerCosts cost;
    cost.eqNsPerEvent = med(&LayerCosts::eqNsPerEvent);
    cost.coreTickNs = med(&LayerCosts::coreTickNs);
    cost.coreNsPerInstr = med(&LayerCosts::coreNsPerInstr);
    cost.tlbLookupNs = med(&LayerCosts::tlbLookupNs);
    cost.walkNs = med(&LayerCosts::walkNs);
    cost.cacheHitNs = med(&LayerCosts::cacheHitNs);
    cost.cacheMissNs = med(&LayerCosts::cacheMissNs);
    cost.dramAccessNs = med(&LayerCosts::dramAccessNs);
    cost.requestAllocNs = med(&LayerCosts::requestAllocNs);
    cost.nextNs = med(&LayerCosts::nextNs);
    for (const auto &[slug, ns] : passes.front().victimNs) {
        std::vector<double> v;
        for (const LayerCosts &c : passes)
            v.push_back(c.victimNs.at(slug));
        cost.victimNs[slug] = median(v);
    }

    const std::string path = opt.outDir + "/" + w.name + "-seed" +
        std::to_string(opt.seed) + ".trace.json";
    if (spans.write(path))
        std::printf("# chrome trace %s (%zu spans)\n", path.c_str(),
                    spans.size());
    else
        std::printf("# chrome trace not written (%s)\n", path.c_str());

    const LayerCounts &c = plain.counts;
    const double kilo = double(c.instructions) / 1000.0;
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? double(a) / double(b) : 0.0;
    };

    double measured = 0;
    for (const PhaseTimes &t : plain.times)
        measured += t.measure;
    mw.add("bench.host_ns_pki", measured * 1e9 / kilo, "ns/ki");
    mw.add("bench.trace_overhead_ratio", traced.wall / plain.wall, "x");

    const double eventsPki = c.pki(c.events);
    mw.add("common.events_pki", eventsPki, "1/ki");
    mw.add("common.eq_ns_per_event", cost.eqNsPerEvent, "ns");
    mw.add("common.est_ns_pki", eventsPki * cost.eqNsPerEvent, "ns/ki");

    const double cyclesPki = c.pki(c.cycles);
    const double nsPerCycle =
        spans.total("measure") * 1e9 / double(std::max<std::uint64_t>(
                                            1, c.cycles));
    mw.add("sim.cycles_pki", cyclesPki, "1/ki");
    mw.add("sim.ns_per_sim_cycle", nsPerCycle, "ns");
    mw.add("sim.est_ns_pki", cyclesPki * nsPerCycle, "ns/ki");

    mw.add("core.tick_ns", cost.coreTickNs, "ns");
    mw.add("core.ipc", ratio(c.instructions, c.threadCycles),
           "instr/cycle");
    mw.add("core.stall_t_pki", c.pki(c.stallT), "cycles/ki");
    mw.add("core.stall_r_pki", c.pki(c.stallR), "cycles/ki");
    mw.add("core.stall_n_pki", c.pki(c.stallN), "cycles/ki");
    // Per instruction, not per tick: the stub machine runs at a far higher
    // IPC than the real one, so its ticks carry more work each.
    mw.add("core.est_ns_pki", 1000.0 * cost.coreNsPerInstr, "ns/ki");

    mw.add("vm.dtlb_lookups_pki", c.pki(c.dtlbLookups), "1/ki");
    mw.add("vm.stlb_lookups_pki", c.pki(c.stlbLookups), "1/ki");
    mw.add("vm.walks_pki", c.pki(c.walks), "1/ki");
    mw.add("vm.walk_refs_pki", c.pki(c.walkRefs), "1/ki");
    mw.add("vm.walks_merged_pki", c.pki(c.walksMerged), "1/ki");
    mw.add("vm.walks_queued_pki", c.pki(c.walksQueued), "1/ki");
    mw.add("vm.psc_hit_ratio", ratio(c.pscLeafHits, c.pscLookups), "ratio");
    mw.add("vm.tlb_lookup_ns", cost.tlbLookupNs, "ns");
    mw.add("vm.walk_ns", cost.walkNs, "ns");
    mw.add("vm.est_ns_pki",
           c.pki(c.dtlbLookups + c.stlbLookups) * cost.tlbLookupNs +
               c.pki(c.walks) * cost.walkNs,
           "ns/ki");

    const std::uint64_t accesses =
        c.l1dAccesses + c.l2cAccesses + c.llcAccesses;
    const std::uint64_t misses = c.l1dMisses + c.l2cMisses + c.llcMisses;
    mw.add("cache.l1d_accesses_pki", c.pki(c.l1dAccesses), "1/ki");
    mw.add("cache.l2c_accesses_pki", c.pki(c.l2cAccesses), "1/ki");
    mw.add("cache.llc_accesses_pki", c.pki(c.llcAccesses), "1/ki");
    mw.add("cache.l2c_miss_ratio", ratio(c.l2cMisses, c.l2cAccesses),
           "ratio");
    mw.add("cache.llc_miss_ratio", ratio(c.llcMisses, c.llcAccesses),
           "ratio");
    mw.add("cache.mshr_merges_pki", c.pki(c.mshrMerges), "1/ki");
    mw.add("cache.mshr_full_pki", c.pki(c.mshrFull), "1/ki");
    mw.add("cache.llc_valid_frac", ratio(c.llcValid, c.llcFrames),
           "ratio");
    mw.add("cache.hit_ns", cost.cacheHitNs, "ns");
    mw.add("cache.miss_ns", cost.cacheMissNs, "ns");
    mw.add("cache.est_ns_pki",
           c.pki(accesses - misses) * cost.cacheHitNs +
               c.pki(misses) * cost.cacheMissNs,
           "ns/ki");

    double replEst = 0;
    for (const char *slug : {"drrip", "tdrrip", "ship", "tship"}) {
        const auto it = cost.victimNs.find(slug);
        const double ns = it == cost.victimNs.end() ? 0.0 : it->second;
        const auto fills = c.fillsByPolicy.find(slug);
        if (fills != c.fillsByPolicy.end())
            replEst += c.pki(fills->second) * ns;
        mw.add(std::string("repl.victim_ns.") + slug, ns, "ns");
    }
    mw.add("repl.est_ns_pki", replEst, "ns/ki");

    mw.add("prefetch.atp_issued_pki", c.pki(c.atpIssued), "1/ki");
    mw.add("prefetch.atp_accuracy", ratio(c.atpUseful, c.atpIssued),
           "ratio");
    mw.add("prefetch.tempo_issued_pki", c.pki(c.tempoIssued), "1/ki");
    mw.add("prefetch.tempo_accuracy", ratio(c.tempoUseful, c.tempoIssued),
           "ratio");
    mw.add("prefetch.est_ns_pki",
           c.pki(c.atpIssued + c.tempoIssued) * cost.cacheMissNs, "ns/ki");

    // One request per L1D access (core or walker) plus one child per
    // miss forwarded below each level.
    const std::uint64_t requests = c.l1dAccesses + misses;
    mw.add("mem.dram_reads_pki", c.pki(c.dramReads), "1/ki");
    mw.add("mem.dram_row_hit_ratio", ratio(c.dramRowHits, c.dramRowAccesses),
           "ratio");
    mw.add("mem.dram_bus_busy_frac",
           ratio(c.dramBusyCycles, c.dramChannelCycles), "ratio");
    mw.add("mem.dram_access_ns", cost.dramAccessNs, "ns");
    mw.add("mem.request_alloc_ns", cost.requestAllocNs, "ns");
    mw.add("mem.est_ns_pki",
           c.pki(c.dramReads) * cost.dramAccessNs +
               c.pki(requests) * cost.requestAllocNs,
           "ns/ki");

    mw.add("workloads.next_ns", cost.nextNs, "ns");
    mw.add("workloads.est_ns_pki", 1000.0 * cost.nextNs, "ns/ki");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    const std::vector<std::string> problems = buildProblems();
    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::fprintf(stderr, "tacsim-bench: refusing to record: %s\n",
                         p.c_str());
        return 3;
    }

    WorkloadDef w;
    try {
        w = makeWorkloadDef(opt.workload, opt.seed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tacsim-bench: %s\n", e.what());
        return 2;
    }
    std::printf("# host {%s}\n", hostJsonMembers().c_str());
    std::printf("# workload %s, seed %llu, %zu points, trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                w.points.size(), opt.trace);

    Tally tally;
    MetricWriter mw;
    {
        Watchdog dog;
        try {
            checkEquivalence(w, tally, dog);
            if (opt.trace)
                perLayer(w, opt, tally, dog, mw);
            else
                endToEnd(w, opt, tally, dog, mw);
        } catch (const std::exception &e) {
            tally.fail(e.what());
        }
    }
    if (!mw.finite())
        tally.fail("a metric is not a finite number");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                tally.correct ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(1, tally.attempted)),
                static_cast<unsigned long long>(tally.failed),
                mw.text().c_str());
    return 0;
}
