#include "points.hh"

#include <exception>
#include <memory>
#include <stdexcept>

#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "span_trace.hh"

namespace perfbench {

using namespace tacsim;

namespace {

/** Fig. 14's incremental steps, in the figure's order. */
struct Step
{
    const char *name;
    TranslationAwareOptions opts;
};

const Step kFig14Steps[] = {
    {"T-DRRIP", {true, false, false, false, false}},
    {"+T-SHiP", {true, true, false, false, false}},
    {"+ATP", {true, true, false, true, false}},
    {"+TEMPO", {true, true, false, true, true}},
};

SystemConfig
proposed(SystemConfig cfg)
{
    TranslationAwareOptions o;
    o.tempo = true;
    applyTranslationAware(cfg, o);
    return cfg;
}

/** A single-core point at the figure binaries' budgets, so what is timed
 *  is the warm-cache regime the figures report. */
Point
singleCore(const std::string &bench, const std::string &config,
           const SystemConfig &cfg)
{
    return {bench + "/" + config, config, cfg, {bench},
            defaultInstructions(), defaultWarmup()};
}

WorkloadDef
fig14(std::uint64_t seed)
{
    WorkloadDef w;
    w.name = "fig14-1c";
    SystemConfig base;
    base.seed = seed;
    for (Benchmark b : kAllBenchmarks) {
        const std::string name = benchmarkName(b);
        w.points.push_back(singleCore(name, "baseline", base));
        for (const Step &s : kFig14Steps) {
            SystemConfig cfg = base;
            applyTranslationAware(cfg, s.opts);
            w.points.push_back(singleCore(name, s.name, cfg));
        }
    }
    return w;
}

/** mcf, pr, cc and canneal x {baseline, proposed} under one VM regime. */
WorkloadDef
vmRegime(const std::string &name, const VmConfig &vm, std::uint64_t seed)
{
    WorkloadDef w;
    w.name = name;
    SystemConfig base;
    base.seed = seed;
    base.vm = vm;
    const SystemConfig prop = proposed(base);
    for (Benchmark b : {Benchmark::mcf, Benchmark::pr, Benchmark::cc,
                        Benchmark::canneal}) {
        const std::string bench = benchmarkName(b);
        w.points.push_back(singleCore(bench, "baseline", base));
        w.points.push_back(singleCore(bench, "proposed", prop));
    }
    return w;
}

std::uint64_t
sum(const std::uint64_t (&a)[kNumBlockCats])
{
    std::uint64_t s = 0;
    for (std::uint64_t v : a)
        s += v;
    return s;
}

void
addCacheCounts(LayerCounts &c, const CacheStats &s, std::uint64_t &acc,
               std::uint64_t &miss)
{
    acc += sum(s.accesses);
    miss += sum(s.misses);
    c.mshrMerges += s.mshrMerges;
    c.mshrFull += s.mshrFullEvents;
    c.atpIssued += s.atpIssued;
    c.atpUseful += s.atpUseful;
    c.tempoUseful += s.tempoUseful;
}

/** Work counters of a finished measured run. */
LayerCounts
countsOf(System &sys)
{
    LayerCounts c;
    c.instructions = sys.measuredInstructions();
    c.cycles = sys.measuredCycles();
    c.threadCycles = c.cycles * sys.threads();
    for (std::size_t t = 0; t < sys.threads(); ++t) {
        const CoreStats &cs = sys.core(t).stats();
        c.stallT += cs.stallCyclesT;
        c.stallR += cs.stallCyclesR;
        c.stallN += cs.stallCyclesN;
    }
    for (std::size_t k = 0; k < sys.config().numCores; ++k) {
        c.dtlbLookups += sys.dtlb(k).stats().accesses;
        c.stlbLookups += sys.stlb(k).stats().accesses;
        const PtwStats &ps = sys.ptw(k).stats();
        c.walks += ps.walks;
        c.walksMerged += ps.merged;
        c.walksQueued += ps.queued;
        for (std::size_t l = 0; l < kPtLevels; ++l)
            c.walkRefs += ps.levelReads[l] + ps.hostLevelReads[l];
        const PscStats &psc = sys.ptw(k).pscStats();
        c.pscLookups += psc.lookups;
        c.pscLeafHits += psc.hitsAtLevel[1];

        addCacheCounts(c, sys.l1d(k).stats(), c.l1dAccesses, c.l1dMisses);
        addCacheCounts(c, sys.l2(k).stats(), c.l2cAccesses, c.l2cMisses);
        c.fillsByPolicy[metricSlug(sys.l2(k).policy().name())] +=
            sys.l2(k).stats().fills;
    }
    for (std::size_t s = 0; s < sys.llcSlices(); ++s) {
        addCacheCounts(c, sys.llc(s).stats(), c.llcAccesses, c.llcMisses);
        c.fillsByPolicy[metricSlug(sys.llc(s).policy().name())] +=
            sys.llc(s).stats().fills;
    }
    const DramStats &d = sys.dram().stats();
    c.dramReads = d.reads;
    c.dramRowHits = d.rowHits;
    c.dramRowAccesses = d.rowHits + d.rowMisses + d.rowConflicts;
    c.dramBusyCycles = d.busyCycles;
    c.dramChannelCycles = c.cycles * sys.dram().params().channels;
    c.tempoIssued = d.tempoPrefetches;
    return c;
}

void
countLlcValid(System &sys, LayerCounts &c)
{
    for (std::size_t s = 0; s < sys.llcSlices(); ++s) {
        const Cache &llc = sys.llc(s);
        for (std::uint32_t set = 0; set < llc.params().sets; ++set) {
            for (std::uint32_t way = 0; way < llc.params().ways; ++way)
                c.llcValid += llc.blockAt(set, way).valid;
        }
        c.llcFrames +=
            std::uint64_t(llc.params().sets) * llc.params().ways;
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig14-1c", "vm-nested",
                                                   "vm-thp"};
    return names;
}

WorkloadDef
makeWorkloadDef(const std::string &name, std::uint64_t seed)
{
    if (name == "fig14-1c")
        return fig14(seed);
    if (name == "vm-nested") {
        VmConfig vm;
        vm.nested = true;
        return vmRegime(name, vm, seed);
    }
    if (name == "vm-thp") {
        VmConfig vm;
        vm.hugePages2M = 1.0;
        return vmRegime(name, vm, seed);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

void
LayerCounts::add(const LayerCounts &o)
{
    instructions += o.instructions;
    cycles += o.cycles;
    threadCycles += o.threadCycles;
    events += o.events;
    stallT += o.stallT;
    stallR += o.stallR;
    stallN += o.stallN;
    dtlbLookups += o.dtlbLookups;
    stlbLookups += o.stlbLookups;
    walks += o.walks;
    walkRefs += o.walkRefs;
    walksMerged += o.walksMerged;
    walksQueued += o.walksQueued;
    pscLookups += o.pscLookups;
    pscLeafHits += o.pscLeafHits;
    l1dAccesses += o.l1dAccesses;
    l1dMisses += o.l1dMisses;
    l2cAccesses += o.l2cAccesses;
    l2cMisses += o.l2cMisses;
    llcAccesses += o.llcAccesses;
    llcMisses += o.llcMisses;
    mshrMerges += o.mshrMerges;
    mshrFull += o.mshrFull;
    llcValid += o.llcValid;
    llcFrames += o.llcFrames;
    for (const auto &[slug, n] : o.fillsByPolicy)
        fillsByPolicy[slug] += n;
    atpIssued += o.atpIssued;
    atpUseful += o.atpUseful;
    tempoIssued += o.tempoIssued;
    tempoUseful += o.tempoUseful;
    dramReads += o.dramReads;
    dramRowHits += o.dramRowHits;
    dramRowAccesses += o.dramRowAccesses;
    dramBusyCycles += o.dramBusyCycles;
    dramChannelCycles += o.dramChannelCycles;
}

double
LayerCounts::pki(std::uint64_t v) const
{
    return instructions ? double(v) * 1000.0 / double(instructions) : 0.0;
}

PointOutcome
drivePoint(const Point &p, SpanTrace *spans)
{
    PointOutcome out;
    auto span = [&](const char *phase, Clock::time_point a,
                    Clock::time_point b) {
        if (spans)
            spans->add(phase, p.key, "points", a, b);
    };
    try {
        const double c0 = threadCpuSeconds();
        const auto t0 = Clock::now();
        std::vector<std::unique_ptr<Workload>> wls;
        wls.reserve(p.specs.size());
        std::string label; // joined from the workloads as runSpecMix does
        for (std::size_t t = 0; t < p.specs.size(); ++t) {
            wls.push_back(makeWorkloadFromSpec(p.specs[t], p.cfg.seed + t));
            label += (t ? "-" : "") + wls.back()->name();
        }
        auto sys = std::make_unique<System>(p.cfg, std::move(wls));
        const auto t1 = Clock::now();
        const double c1 = threadCpuSeconds();
        sys->warmup(p.warmup);
        const auto t2 = Clock::now();
        const double c2 = threadCpuSeconds();

        // Between phases, untimed: the reset audit and the warm-state
        // snapshot. A counter that survived the reset would leak warm-up
        // work into every measured statistic.
        const std::vector<std::string> leaked =
            sys->metrics().nonZeroAfterReset();
        if (!leaked.empty())
            throw std::runtime_error("reset audit: " + leaked.front() +
                                     " non-zero after warm-up");
        LayerCounts warmState;
        countLlcValid(*sys, warmState);
        const std::uint64_t eventsBefore = sys->eventQueue().executed();

        const double c3 = threadCpuSeconds();
        const auto t3 = Clock::now();
        sys->run(p.instructions);
        const auto t4 = Clock::now();
        const double c4 = threadCpuSeconds();

        out.result = collectResult(*sys, label);
        out.fullStats = dumpFullStats(*sys);
        out.resultDump = dumpRunResult(out.result);
        out.counts = countsOf(*sys);
        out.counts.events = sys->eventQueue().executed() - eventsBefore;
        out.counts.llcValid = warmState.llcValid;
        out.counts.llcFrames = warmState.llcFrames;
        for (std::size_t t = 0; t < sys->threads(); ++t) {
            if (sys->core(t).retired() < p.instructions)
                throw std::runtime_error(
                    "thread " + std::to_string(t) + " retired " +
                    std::to_string(sys->core(t).retired()) + " of " +
                    std::to_string(p.instructions));
        }
        sys.reset();
        const auto t5 = Clock::now();
        const double c5 = threadCpuSeconds();

        out.times = {c1 - c0, c2 - c1, c4 - c3, c5 - c0};
        span("setup", t0, t1);
        span("warmup", t1, t2);
        span("measure", t3, t4);
        span("collect", t4, t5);
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

std::vector<std::string>
equivalenceDiffs(const Point &p)
{
    const PointOutcome o = drivePoint(p);
    if (!o.ok)
        return {"phase-split drive failed: " + o.error};
    return diffDumps(
        dumpRunResult(runSpecMix(p.cfg, p.specs, p.instructions, p.warmup)),
        o.resultDump);
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace perfbench
