#include "sim/runner.hh"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

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
    const obs::Totals t = sys.metrics().totals();
    const auto n = [&t](const char *metric) { return t.counter(metric); };

    RunResult r;
    r.benchmark = name;
    r.cycles = sys.measuredCycles();
    r.instructions = sys.measuredInstructions();
    r.events = sys.eventQueue().executed();
    r.ipc = r.cycles ? double(r.instructions) / double(r.cycles) : 0.0;
    for (std::size_t th = 0; th < sys.threads(); ++th) {
        r.threadCycles.push_back(sys.threadCycles(th));
        r.threadInstructions.push_back(sys.threadInstructions(th));
    }

    const double kilo = double(r.instructions) / 1000.0;
    auto mpki = [kilo](std::uint64_t misses) {
        return kilo > 0 ? double(misses) / kilo : 0.0;
    };

    // STLB MPKI counts *walks*: concurrent misses on a page whose walk
    // is already in flight merge in the PTW and are one miss
    // architecturally.
    r.stlbMpki = mpki(n("ptw.walks"));

    r.stallT = n("core.stall_cycles.translation");
    r.stallR = n("core.stall_cycles.replay");
    r.stallN = n("core.stall_cycles.other");
    const Histogram &perWalk = t.histogram("core.stall_per_walk"),
                    &perReplay = t.histogram("core.stall_per_replay"),
                    &perNonReplay = t.histogram("core.stall_per_nonreplay");
    // An STLB-missing access adds one sample to both the walk and the
    // replay histogram, so the walk count is the replay count.
    if (const double walks = double(perWalk.count()); walks > 0) {
        r.avgStallPerWalk = double(perWalk.sum()) / walks;
        r.avgStallPerReplay = double(perReplay.sum()) / walks;
    }
    if (perNonReplay.count())
        r.avgStallPerNonReplay =
            double(perNonReplay.sum()) / double(perNonReplay.count());
    r.maxStallPerWalk = perWalk.max();
    r.maxStallPerReplay = perReplay.max();

    r.l2ReplayMpki = mpki(n("l2c.misses.replay"));
    r.l2NonReplayMpki = mpki(n("l2c.misses.nonreplay"));
    r.l2Ptl1Mpki = mpki(n("l2c.misses.pt_leaf"));
    r.llcReplayMpki = mpki(n("llc.misses.replay"));
    r.llcNonReplayMpki = mpki(n("llc.misses.nonreplay"));
    r.llcPtl1Mpki = mpki(n("llc.misses.pt_leaf"));

    // Where leaf translations were serviced.
    const std::uint64_t leafL1 = n("ptw.leaf_from.l1d"),
                        leafL2 = n("ptw.leaf_from.l2c"),
                        leafLlc = n("ptw.leaf_from.llc"),
                        leafDram = n("ptw.leaf_from.dram");
    const double leafTotal = double(leafL1 + leafL2 + leafLlc + leafDram +
                                    n("ptw.leaf_from.ideal"));
    if (leafTotal > 0) {
        r.leafL1D = leafL1 / leafTotal;
        r.leafL2C = leafL2 / leafTotal;
        r.leafLLC = leafLlc / leafTotal;
        r.leafDram = leafDram / leafTotal;
        r.leafOnChipHitRate = 1.0 - r.leafDram;
    }

    // Where replay loads were serviced, from each level's replay hits.
    const std::uint64_t rAcc = n("l1d.accesses.replay"),
                        rL1Hit = n("l1d.hits.replay"),
                        rL2Hit = n("l2c.hits.replay"),
                        rLlcHit = n("llc.hits.replay");
    if (rAcc > 0) {
        r.replayL1D = double(rL1Hit) / double(rAcc);
        r.replayL2C = double(rL2Hit) / double(rAcc);
        r.replayLLC = double(rLlcHit) / double(rAcc);
        r.replayDram =
            std::max(0.0, 1.0 - r.replayL1D - r.replayL2C - r.replayLLC);
    }

    r.atpIssued = n("l2c.atp.issued") + n("llc.atp.issued");
    r.atpUseful = n("l2c.atp.useful") + n("llc.atp.useful");
    r.tempoIssued = n("dram.tempo_prefetches");

    for (const auto &[metric, h] : t.histograms)
        if (metric.find(".recall.") != std::string::npos)
            r.recall.emplace(metric, h);
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

} // namespace

/**
 * The one run protocol. Build the machine; any "{key}" still in the obs
 * output paths expands with the run label (the sweep runner substitutes
 * its more specific sweep key before this point). Then warm up, reset
 * the statistics and measure: System::warmup() + run(). Verify builds
 * attach a verify::Checker to every run; walking a mapped page table is
 * side-effect free, so results are unchanged.
 */
RunResult
runWorkloads(const SystemConfig &cfg,
             std::vector<std::unique_ptr<Workload>> workloads,
             std::uint64_t instructionsPerThread, std::uint64_t warmup)
{
    const std::string label = joinedNames(workloads);
    System sys(configForPoint(cfg, label), std::move(workloads));
#ifdef TACSIM_VERIFY_ENABLED
    verify::Checker checker(sys);
    sys.attachChecker(&checker);
#endif
    sys.warmup(warmup ? warmup : defaultWarmup());
    sys.run(instructionsPerThread ? instructionsPerThread
                                  : defaultInstructions());
    return collectResult(sys, label);
}

RunResult
runSpecMix(const SystemConfig &cfg, const std::vector<std::string> &specs,
           std::uint64_t instructionsPerThread, std::uint64_t warmup)
{
    return runWorkloads(cfg, makeWorkloads(cfg, specs),
                        instructionsPerThread, warmup);
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
