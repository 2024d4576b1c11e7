#include "sim/runner.hh"

#include <cstdlib>

#include "sim/checkpoint.hh"
#include "sim/verify.hh"

namespace tacsim {

namespace {

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    if (const char *v = std::getenv(name)) {
        const std::uint64_t parsed = std::strtoull(v, nullptr, 10);
        if (parsed > 0)
            return parsed;
    }
    return fallback;
}

} // namespace

std::uint64_t
defaultInstructions()
{
    return envOr("TACSIM_INSTRUCTIONS", 400000);
}

std::uint64_t
defaultWarmup()
{
    return envOr("TACSIM_WARMUP", 100000);
}

RunResult
collectResult(System &sys, const std::string &name)
{
    RunResult r;
    r.benchmark = name;
    r.cycles = sys.measuredCycles();
    r.instructions = sys.measuredInstructions();
    r.events = sys.eventQueue().executed();
    r.ipc = r.cycles ? double(r.instructions) / double(r.cycles) : 0.0;

    const double kilo = double(r.instructions) / 1000.0;
    auto mpki = [kilo](std::uint64_t misses) {
        return kilo > 0 ? double(misses) / kilo : 0.0;
    };

    // TLB and stall stats aggregate across cores/threads.
    std::uint64_t stlbMisses = 0;
    std::uint64_t walkHistCount = 0;
    double walkStallSum = 0, replayStallSum = 0, nonReplayStallSum = 0;
    std::uint64_t nonReplayCount = 0;
    const std::size_t nCores =
        sys.config().numCores; // private structures per core
    // STLB MPKI counts *walks*: concurrent misses on a page whose walk
    // is already in flight merge in the PTW and are one miss
    // architecturally.
    for (std::size_t c = 0; c < nCores; ++c)
        stlbMisses += sys.ptw(c).stats().walks;

    for (std::size_t t = 0; t < sys.threads(); ++t) {
        const CoreStats &cs = sys.core(t).stats();
        r.stallT += cs.stallCyclesT;
        r.stallR += cs.stallCyclesR;
        r.stallN += cs.stallCyclesN;
        walkHistCount += cs.stallPerWalk.count();
        walkStallSum += cs.stallPerWalk.mean() * cs.stallPerWalk.count();
        replayStallSum +=
            cs.stallPerReplay.mean() * cs.stallPerReplay.count();
        nonReplayCount += cs.stallPerNonReplay.count();
        nonReplayStallSum +=
            cs.stallPerNonReplay.mean() * cs.stallPerNonReplay.count();
        r.maxStallPerWalk =
            std::max(r.maxStallPerWalk, cs.stallPerWalk.max());
        r.maxStallPerReplay =
            std::max(r.maxStallPerReplay, cs.stallPerReplay.max());
        r.threadCycles.push_back(sys.threadCycles(t));
        r.threadInstructions.push_back(cs.retired);
    }
    r.stlbMpki = mpki(stlbMisses);
    if (walkHistCount) {
        r.avgStallPerWalk = walkStallSum / double(walkHistCount);
        r.avgStallPerReplay = replayStallSum / double(walkHistCount);
    }
    if (nonReplayCount)
        r.avgStallPerNonReplay = nonReplayStallSum / double(nonReplayCount);

    // Cache MPKIs (sum private L2s).
    std::uint64_t l2Replay = 0, l2NonReplay = 0, l2Ptl1 = 0;
    for (std::size_t c = 0; c < nCores; ++c) {
        const CacheStats &s = sys.l2(c).stats();
        l2Replay += s.at(s.misses, BlockCat::Replay);
        l2NonReplay += s.at(s.misses, BlockCat::NonReplay);
        l2Ptl1 += s.at(s.misses, BlockCat::PtLeaf);
    }
    r.l2ReplayMpki = mpki(l2Replay);
    r.l2NonReplayMpki = mpki(l2NonReplay);
    r.l2Ptl1Mpki = mpki(l2Ptl1);

    const CacheStats ls = sys.llcStats(); // summed across slices
    r.llcReplayMpki = mpki(ls.at(ls.misses, BlockCat::Replay));
    r.llcNonReplayMpki = mpki(ls.at(ls.misses, BlockCat::NonReplay));
    r.llcPtl1Mpki = mpki(ls.at(ls.misses, BlockCat::PtLeaf));

    // Leaf-translation / replay response distributions.
    std::uint64_t leafL1 = 0, leafL2 = 0, leafLlc = 0, leafDram = 0,
                  leafIdeal = 0;
    for (std::size_t c = 0; c < nCores; ++c) {
        const PtwStats &ps = sys.ptw(c).stats();
        leafL1 += ps.leafFromL1D;
        leafL2 += ps.leafFromL2C;
        leafLlc += ps.leafFromLLC;
        leafDram += ps.leafFromDram;
        leafIdeal += ps.leafFromIdeal;
    }
    const double leafTotal =
        double(leafL1 + leafL2 + leafLlc + leafDram + leafIdeal);
    if (leafTotal > 0) {
        r.leafL1D = leafL1 / leafTotal;
        r.leafL2C = leafL2 / leafTotal;
        r.leafLLC = leafLlc / leafTotal;
        r.leafDram = leafDram / leafTotal;
        r.leafOnChipHitRate = 1.0 - r.leafDram;
    }

    // Replay response distribution from L1D/L2/LLC hit/miss accounting.
    std::uint64_t rAcc = 0, rL1Hit = 0, rL2Hit = 0, rLlcHit = 0;
    for (std::size_t c = 0; c < nCores; ++c) {
        const CacheStats &a = sys.l1d(c).stats();
        const CacheStats &b = sys.l2(c).stats();
        rAcc += a.at(a.accesses, BlockCat::Replay);
        rL1Hit += a.at(a.hits, BlockCat::Replay);
        rL2Hit += b.at(b.hits, BlockCat::Replay);
    }
    rLlcHit = ls.at(ls.hits, BlockCat::Replay);
    if (rAcc > 0) {
        r.replayL1D = double(rL1Hit) / double(rAcc);
        r.replayL2C = double(rL2Hit) / double(rAcc);
        r.replayLLC = double(rLlcHit) / double(rAcc);
        r.replayDram =
            std::max(0.0, 1.0 - r.replayL1D - r.replayL2C - r.replayLLC);
    }

    for (std::size_t c = 0; c < nCores; ++c) {
        r.atpIssued += sys.l2(c).stats().atpIssued;
    }
    r.atpIssued += ls.atpIssued;
    r.atpUseful = ls.atpUseful;
    for (std::size_t c = 0; c < nCores; ++c)
        r.atpUseful += sys.l2(c).stats().atpUseful;
    r.tempoIssued = sys.dram().stats().tempoPrefetches;

    return r;
}

RunResult
runBenchmark(const SystemConfig &cfg, Benchmark b,
             std::uint64_t instructions, std::uint64_t warmup)
{
    std::vector<Benchmark> mix(cfg.threads(), b);
    return runMix(cfg, mix, instructions, warmup);
}

RunResult
runMix(const SystemConfig &cfg, const std::vector<Benchmark> &mix,
       std::uint64_t instructionsPerThread, std::uint64_t warmup)
{
    // The config's workload spec, when set, overrides the benchmark
    // selection on every thread (e.g. "trace:<path>" replays a recorded
    // trace through an otherwise unchanged experiment).
    std::vector<std::string> specs;
    specs.reserve(mix.size());
    for (Benchmark b : mix)
        specs.push_back(cfg.workload.empty() ? benchmarkName(b)
                                             : cfg.workload);
    return runSpecMix(cfg, specs, instructionsPerThread, warmup);
}

RunResult
runSpec(const SystemConfig &cfg, const std::string &spec,
        std::uint64_t instructions, std::uint64_t warmup)
{
    std::vector<std::string> specs(cfg.threads(), spec);
    return runSpecMix(cfg, specs, instructions, warmup);
}

namespace {

std::vector<std::unique_ptr<Workload>>
makeWorkloads(const SystemConfig &cfg, const std::vector<std::string> &specs)
{
    std::vector<std::unique_ptr<Workload>> wls;
    wls.reserve(specs.size());
    for (std::size_t t = 0; t < specs.size(); ++t)
        wls.push_back(makeWorkloadFromSpec(specs[t], cfg.seed + t));
    return wls;
}

/** The default run label: the workloads' names joined with "-". */
std::string
joinedNames(const std::vector<std::unique_ptr<Workload>> &workloads)
{
    std::string label;
    for (std::size_t t = 0; t < workloads.size(); ++t) {
        if (t)
            label += "-";
        label += workloads[t]->name();
    }
    return label;
}

/**
 * One run's machine, built the same way by every entry point, so
 * checkpoint save/restore runs see the same machine as a
 * straight-through run. Any "{key}" still in the obs output paths
 * expands with the run label (the sweep runner substitutes its more
 * specific sweep key before this point). Verify builds attach a
 * verify::Checker to every run, not just to tests that attach one by
 * hand; walking a mapped page table is side-effect free, so results
 * are unchanged.
 */
class RunMachine
{
  public:
    /** @p name labels the result; empty joins the workload names. */
    RunMachine(const SystemConfig &cfg,
               std::vector<std::unique_ptr<Workload>> workloads,
               const std::string &name = "")
        : label_(name.empty() ? joinedNames(workloads) : name),
          sys_(configForPoint(cfg, label_), std::move(workloads))
    {
#ifdef TACSIM_VERIFY_ENABLED
        sys_.attachChecker(&checker_);
#endif
    }

    System &sys() { return sys_; }
    RunResult result() { return collectResult(sys_, label_); }

  private:
    // label_ is declared first: it reads the workloads before sys_
    // takes them.
    std::string label_;
    System sys_;
#ifdef TACSIM_VERIFY_ENABLED
    verify::Checker checker_{sys_};
#endif
};

} // namespace

RunResult
runSpecMix(const SystemConfig &cfg, const std::vector<std::string> &specs,
           std::uint64_t instructionsPerThread, std::uint64_t warmup)
{
    return runWorkloads(cfg, makeWorkloads(cfg, specs), "",
                        instructionsPerThread, warmup);
}

RunResult
runSpecMixCheckpointed(const SystemConfig &cfg,
                       const std::vector<std::string> &specs,
                       std::uint64_t instructionsPerThread,
                       std::uint64_t warmup, const std::string &ckptPath)
{
    if (instructionsPerThread == 0)
        instructionsPerThread = defaultInstructions();
    if (warmup == 0)
        warmup = defaultWarmup();

    RunMachine m(cfg, makeWorkloads(cfg, specs));
    System &sys = m.sys();
    sys.run(warmup);
    // saveCheckpoint quiesces first; the measured run then continues
    // from the same drained boundary a restored run starts at.
    saveCheckpoint(ckptPath, sys);
    sys.resetStats();
    sys.run(instructionsPerThread);
    return m.result();
}

RunResult
runSpecMixFromCheckpoint(const SystemConfig &cfg,
                         const std::vector<std::string> &specs,
                         std::uint64_t instructionsPerThread,
                         const std::string &ckptPath)
{
    if (instructionsPerThread == 0)
        instructionsPerThread = defaultInstructions();

    RunMachine m(cfg, makeWorkloads(cfg, specs));
    System &sys = m.sys();
    loadCheckpoint(ckptPath, sys);
    sys.resetStats();
    sys.run(instructionsPerThread);
    return m.result();
}

RunResult
runWorkloads(const SystemConfig &cfg,
             std::vector<std::unique_ptr<Workload>> workloads,
             const std::string &name, std::uint64_t instructionsPerThread,
             std::uint64_t warmup)
{
    if (instructionsPerThread == 0)
        instructionsPerThread = defaultInstructions();
    if (warmup == 0)
        warmup = defaultWarmup();

    RunMachine m(cfg, std::move(workloads), name);
    m.sys().warmup(warmup);
    m.sys().run(instructionsPerThread);
    return m.result();
}

double
speedup(const RunResult &baseline, const RunResult &enhanced)
{
    // Same instruction budget: compare per-instruction execution time.
    const double base = double(baseline.cycles) /
        double(std::max<std::uint64_t>(1, baseline.instructions));
    const double enh = double(enhanced.cycles) /
        double(std::max<std::uint64_t>(1, enhanced.instructions));
    return enh > 0 ? base / enh : 0.0;
}

double
harmonicSpeedup(const std::vector<double> &soloIpc, const RunResult &mix)
{
    double denom = 0;
    for (std::size_t t = 0; t < soloIpc.size(); ++t) {
        const double mixIpc = mix.threadIpc(t);
        if (mixIpc <= 0)
            return 0.0;
        denom += soloIpc[t] / mixIpc;
    }
    return denom > 0 ? double(soloIpc.size()) / denom : 0.0;
}

} // namespace tacsim
