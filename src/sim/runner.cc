#include "sim/runner.hh"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "serve/point_key.hh"
#include "sim/checkpoint.hh"
#include "sim/verify.hh"

namespace tacsim {

std::optional<std::uint64_t>
parseCount(std::string_view text, std::uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    // from_chars into an unsigned type takes digits only: no sign, no
    // space, no suffix or exponent, and it reports overflow.
    std::uint64_t n = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc{} || stop != end || n > max)
        return std::nullopt;
    return n;
}

std::uint64_t
envCount(const char *name, std::uint64_t fallback, std::uint64_t max)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    const std::optional<std::uint64_t> n = parseCount(v, max);
    if (!n)
        throw std::invalid_argument(
            std::string(name) + "=\"" + v +
            "\" is not a count: use decimal digits up to " +
            std::to_string(max) + ", or unset, empty or 0 for the default");
    return *n ? *n : fallback;
}

std::uint64_t
defaultInstructions()
{
    return envCount("TACSIM_INSTRUCTIONS", 400000);
}

std::uint64_t
defaultWarmup()
{
    return envCount("TACSIM_WARMUP", 100000);
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

/** The run label: the workloads' names joined with "-". */
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
 * The one run protocol behind both entry points. Build the machine; any
 * "{key}" still in the obs output paths expands with the run label (the
 * sweep runner substitutes its more specific sweep key before this
 * point). Then restore @p ckpt.load, or else warm up and optionally
 * save to @p ckpt.save (saving quiesces first, so the measured run
 * continues from the same drained boundary a restored run starts at);
 * then reset the statistics and measure. With no checkpoint path this
 * is exactly System::warmup() + run(). @p stamp is the checkpoint's
 * point identity (serve::warmKey). Verify builds attach a
 * verify::Checker to every run; walking a mapped page table is
 * side-effect free, so results are unchanged.
 */
RunResult
runPoint(const SystemConfig &cfg,
         std::vector<std::unique_ptr<Workload>> workloads,
         std::uint64_t instructionsPerThread, std::uint64_t warmup,
         const RunCheckpoint &ckpt, const std::string &stamp)
{
    const std::string label = joinedNames(workloads);
    System sys(configForPoint(cfg, label), std::move(workloads));
#ifdef TACSIM_VERIFY_ENABLED
    verify::Checker checker(sys);
    sys.attachChecker(&checker);
#endif
    if (!ckpt.load.empty()) {
        loadCheckpoint(ckpt.load, sys, stamp);
    } else {
        sys.run(warmup ? warmup : defaultWarmup());
        if (!ckpt.save.empty())
            saveCheckpoint(ckpt.save, sys, stamp);
    }
    sys.resetStats();
    sys.run(instructionsPerThread ? instructionsPerThread
                                  : defaultInstructions());
    return collectResult(sys, label);
}

} // namespace

RunResult
runSpecMix(const SystemConfig &cfg, const std::vector<std::string> &specs,
           std::uint64_t instructionsPerThread, std::uint64_t warmup,
           const RunCheckpoint &ckpt)
{
    if (!ckpt.save.empty() && !ckpt.load.empty())
        throw std::invalid_argument(
            "runSpecMix: a run either saves or loads a checkpoint, not "
            "both");
    const std::string stamp = ckpt.save.empty() && ckpt.load.empty()
        ? std::string()
        : serve::warmKey(cfg, specs, warmup);
    return runPoint(cfg, makeWorkloads(cfg, specs), instructionsPerThread,
                    warmup, ckpt, stamp);
}

RunResult
runWorkloads(const SystemConfig &cfg,
             std::vector<std::unique_ptr<Workload>> workloads,
             std::uint64_t instructionsPerThread, std::uint64_t warmup)
{
    return runPoint(cfg, std::move(workloads), instructionsPerThread,
                    warmup, {}, "");
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
