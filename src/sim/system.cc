#include "sim/system.hh"

#include <algorithm>
#include <stdexcept>

#include "cache/repl/csalt.hh"
#include "cache/repl/deadblock.hh"
#include "obs/chrome_trace.hh"
#include "obs/timeseries.hh"
#include "sim/topology.hh"
#include "sim/verify.hh"

namespace tacsim {

namespace {

/** The LLC's policy: cfg.llcPolicy, under the wrapper cfg selects. */
std::unique_ptr<ReplPolicy>
makeLlcPolicy(const SystemConfig &cfg, std::uint32_t sets,
              std::uint32_t ways)
{
    auto base = makePolicy(cfg.llcPolicy, sets, ways, cfg.llcOpts, cfg.seed);
    if (cfg.llcDeadBlock)
        return std::make_unique<DeadBlockPolicy>(sets, ways, cfg.llcOpts,
                                                 std::move(base));
    if (cfg.llcCsalt)
        return std::make_unique<CsaltPolicy>(sets, ways, cfg.llcOpts,
                                             std::move(base));
    return base;
}

} // namespace

System::System(SystemConfig cfg,
               std::vector<std::unique_ptr<Workload>> workloads)
    : cfg_(cfg), workloads_(std::move(workloads))
{
    // Reject shapes that cannot be built (zero cores, a non-power-of-two
    // LLC set count) before building anything.
    validateTopology(cfg_);

    const unsigned threads = cfg_.threads();
    if (workloads_.size() != threads)
        throw std::invalid_argument(
            "System: " + std::to_string(workloads_.size()) +
            " workload(s) for " + std::to_string(threads) +
            " hardware thread(s); need exactly one per thread");

    // Page tables: one address space per thread. Huge-page coverage is
    // a property of the (simulated) OS, so every thread shares the same
    // promotion policy.
    const HugePagePolicy guestPolicy{cfg_.vm.hugePages2M,
                                     cfg_.vm.hugePages1G, cfg_.seed};
    for (unsigned t = 0; t < threads; ++t)
        pageTables_.push_back(
            std::make_unique<PageTable>(frames_, guestPolicy));

    // Nested translation: one host address space translating every
    // guest-physical address, with its own frame pool (host-physical).
    if (cfg_.vm.nested) {
        const HugePagePolicy hostPolicy{cfg_.vm.hostHugePages2M,
                                        cfg_.vm.hostHugePages1G,
                                        cfg_.seed + 1};
        hostPageTable_ =
            std::make_unique<PageTable>(hostFrames_, hostPolicy);
    }

    // DRAM: dramChannelsOf(cfg) channels (one per four cores unless
    // set); TEMPO when dram.tempo is set.
    DramParams dp = cfg_.dram;
    dp.channels = dramChannelsOf(cfg_);
    dram_ = std::make_unique<Dram>("DRAM", eq_, dp);

    // Shared LLC: one cache of llcBytesOf(cfg) (default 2MB per core)
    // with llcPerCore.mshrs per core.
    {
        CacheParams p;
        p.name = "LLC";
        p.ways = cfg_.llcPerCore.ways;
        p.sets = static_cast<std::uint32_t>(
            llcBytesOf(cfg_) / (std::uint64_t{p.ways} * kBlockSize));
        p.latency = cfg_.llcPerCore.latency;
        p.mshrs = std::max<std::uint32_t>(
            1, cfg_.llcPerCore.mshrs * cfg_.numCores);
        p.level = RespSource::LLC;
        p.idealTranslations = cfg_.idealLlcTranslations;
        p.idealReplays = cfg_.idealLlcReplays;
        p.atp = cfg_.atpLlc;
        p.profileRecall = cfg_.profileCacheRecall;
        llc_ = std::make_unique<Cache>(p, eq_, dram_.get(),
                                       makeLlcPolicy(cfg_, p.sets, p.ways));
    }

    if (cfg_.dram.tempo) {
        dram_->setTempoHook([this](Addr block, Addr ip) {
            llc_->issuePrefetch(block, PrefetchOrigin::Tempo, ip);
        });
    }

    // Per-core private hierarchy.
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        const std::string suffix =
            cfg_.numCores > 1 ? "." + std::to_string(c) : "";

        {
            CacheParams p;
            p.name = "L2C" + suffix;
            p.ways = cfg_.l2.ways;
            p.sets = cfg_.l2.sets();
            p.latency = cfg_.l2.latency;
            p.mshrs = cfg_.l2.mshrs;
            p.level = RespSource::L2C;
            p.idealTranslations = cfg_.idealL2Translations;
            p.idealReplays = cfg_.idealL2Replays;
            p.atp = cfg_.atpL2;
            p.profileRecall = cfg_.profileCacheRecall;
            auto pol = makePolicy(cfg_.l2Policy, p.sets, p.ways,
                                  cfg_.l2Opts, cfg_.seed + c);
            auto pf = makePrefetcher(cfg_.l2Prefetcher);
            l2_.push_back(std::make_unique<Cache>(p, eq_, llc_.get(),
                                                  std::move(pol),
                                                  std::move(pf)));
        }

        dtlb_.push_back(std::make_unique<Tlb>(
            "DTLB" + suffix, cfg_.dtlbEntries, cfg_.dtlbWays,
            cfg_.dtlbLatency));
        stlb_.push_back(std::make_unique<Tlb>(
            "STLB" + suffix, cfg_.stlbEntries, cfg_.stlbWays,
            cfg_.stlbLatency, cfg_.profileStlbRecall));

        {
            CacheParams p;
            p.name = "L1D" + suffix;
            p.ways = cfg_.l1d.ways;
            p.sets = cfg_.l1d.sets();
            p.latency = cfg_.l1d.latency;
            p.mshrs = cfg_.l1d.mshrs;
            p.level = RespSource::L1D;
            auto pol = makePolicy(PolicyKind::LRU, p.sets, p.ways, {},
                                  cfg_.seed + c);
            auto pf = makePrefetcher(cfg_.l1Prefetcher);
            if (pf) {
                Tlb *dtlb = dtlb_[c].get();
                Tlb *stlb = stlb_[c].get();
                pf->setTranslateHook(
                    [dtlb, stlb](Addr vaddr,
                                 std::uint16_t cpu) -> std::optional<Addr> {
                        // probe() applies the hit entry's own offset
                        // mask, so huge-page mappings translate right.
                        Addr paddr = 0;
                        if (dtlb->probe(cpu, vaddr, paddr) ||
                            stlb->probe(cpu, vaddr, paddr))
                            return paddr;
                        return std::nullopt;
                    });
            }
            l1d_.push_back(std::make_unique<Cache>(p, eq_, l2_[c].get(),
                                                   std::move(pol),
                                                   std::move(pf)));
        }

        ptw_.push_back(std::make_unique<PageTableWalker>(
            eq_, l1d_[c].get(), cfg_.ptw, "PTW" + suffix));
        ptw_[c]->setStlb(stlb_[c].get());
        if (hostPageTable_)
            ptw_[c]->setNestedTranslation(hostPageTable_.get());
    }

    // Hardware threads.
    for (unsigned t = 0; t < threads; ++t) {
        const unsigned c = t / cfg_.threadsPerCore;
        CoreParams cp = cfg_.core;
        cp.robSize = cfg_.core.robSize / cfg_.threadsPerCore;
        cp.cpuId = static_cast<std::uint16_t>(t);
        cp.asid = static_cast<std::uint16_t>(t);
        ptw_[c]->addAddressSpace(cp.asid, pageTables_[t].get());
        cores_.push_back(std::make_unique<Core>(
            cp, eq_, *workloads_[t], *dtlb_[c], *stlb_[c], *ptw_[c],
            *l1d_[c]));
    }

    finishCycle_.assign(threads, 0);
    finishInstructions_.assign(threads, 0);

    // Metrics registration. Every component catalogues its counters /
    // gauges / histograms once, here; the per-core prefix carries an
    // index only when there is more than one instance (matching the
    // "L2C" vs "L2C.0" component-name convention).
    for (unsigned t = 0; t < threads; ++t) {
        const std::string tsuffix =
            threads > 1 ? "." + std::to_string(t) : "";
        cores_[t]->registerMetrics(registry_, "core" + tsuffix);
    }
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        const std::string suffix =
            cfg_.numCores > 1 ? "." + std::to_string(c) : "";
        dtlb_[c]->registerMetrics(registry_, "dtlb" + suffix);
        stlb_[c]->registerMetrics(registry_, "stlb" + suffix);
        ptw_[c]->registerMetrics(registry_, "ptw" + suffix);
        l1d_[c]->registerMetrics(registry_, "l1d" + suffix);
        l2_[c]->registerMetrics(registry_, "l2c" + suffix);
    }
    llc_->registerMetrics(registry_, "llc");
    dram_->registerMetrics(registry_, "dram");

    // Timeline tracing (off unless a path was configured; components
    // keep a null tracer pointer otherwise).
    if (!cfg_.obs.chromeTracePath.empty()) {
        tracer_ =
            std::make_unique<obs::ChromeTracer>(cfg_.obs.chromeTracePath);
        for (unsigned t = 0; t < threads; ++t)
            cores_[t]->setTracer(
                tracer_.get(),
                tracer_->addTrack("Core." + std::to_string(t)));
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            ptw_[c]->setTracer(tracer_.get(),
                               tracer_->addTrack(ptw_[c]->name()));
            l1d_[c]->setTracer(
                tracer_.get(), tracer_->addTrack(l1d_[c]->name()));
            l2_[c]->setTracer(
                tracer_.get(), tracer_->addTrack(l2_[c]->name()));
        }
        llc_->setTracer(tracer_.get(), tracer_->addTrack(llc_->name()));
        dram_->setTracer(tracer_.get(),
                         tracer_->addTrack(dram_->name()));
    }

    // Time-series sampling.
    if (!cfg_.obs.timeseriesPath.empty()) {
        const std::uint64_t interval =
            cfg_.obs.sampleInterval ? cfg_.obs.sampleInterval : 10000;
        sampler_ = std::make_unique<obs::Sampler>(
            registry_, cfg_.obs.timeseriesPath, interval,
            cfg_.obs.label.empty() ? std::string("tacsim")
                                   : cfg_.obs.label);
    }
}

System::~System()
{
    if (sampler_)
        sampler_->finish(measuredInstructions(), cycle_);
    if (tracer_)
        tracer_->finish();
}

void
System::run(std::uint64_t instrPerThread)
{
    const std::size_t n = cores_.size();
    std::vector<std::uint64_t> start(n);
    std::vector<bool> reached(n, false);
    for (std::size_t t = 0; t < n; ++t)
        start[t] = cores_[t]->retired();
    runStartCycle_ = cycle_;

    std::size_t remaining = n;
    while (remaining > 0) {
#ifdef TACSIM_VERIFY_ENABLED
        // Periodic hierarchy verification between scheduler iterations,
        // where all components are quiescent. Compiled out (and thus
        // genuinely free) unless -DTACSIM_VERIFY=ON.
        if (checker_)
            checker_->maybeCheck(eq_.executed());
#endif
        eq_.advanceTo(cycle_);

        bool allBlocked = true;
        for (std::size_t t = 0; t < n; ++t) {
            cores_[t]->tick();
            if (!cores_[t]->blocked())
                allBlocked = false;
            const std::uint64_t done = cores_[t]->retired() - start[t];
            if (!reached[t] && done >= instrPerThread) {
                reached[t] = true;
                finishCycle_[t] = cycle_;
                finishInstructions_[t] = done;
                --remaining;
            }
        }
        if (sampler_)
            sampler_->maybeSample(measuredInstructions(), cycle_);
        if (remaining == 0)
            break;

        if (allBlocked) {
            if (eq_.empty())
                throw std::runtime_error(
                    "tacsim: deadlock — all cores blocked, no events");
            const Cycle next = eq_.nextEventCycle();
            if (next > cycle_ + 1) {
                const Cycle skip = next - (cycle_ + 1);
                for (auto &core : cores_)
                    core->chargeSkippedCycles(skip);
                cycle_ = next;
                continue;
            }
        }
        ++cycle_;
    }

    ranOnce_ = true;

#ifdef TACSIM_VERIFY_ENABLED
    // Drain point: the run target is met, no core mid-retire.
    if (checker_)
        checker_->onDrain();
#endif
}

void
System::warmup(std::uint64_t instr)
{
    run(instr);
    resetStats();
}

void
System::resetStats()
{
    cycleBase_ = cycle_;
    // Record where the reset fell before counters drop to zero.
    const std::uint64_t instr = measuredInstructions();
    // Every component installed a reset hook when it registered its
    // metrics, so one call covers the whole hierarchy — including state
    // the old per-component sweep missed (recall profilers, policy
    // bypass counters).
    registry_.resetAll();
    if (sampler_)
        sampler_->markReset(instr, cycle_);
}

std::uint64_t
System::measuredInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores_)
        total += c->retired();
    return total;
}

} // namespace tacsim
