#include "sim/system.hh"

#include <algorithm>
#include <stdexcept>

#include "common/serialize.hh"

#include "cache/repl/csalt.hh"
#include "cache/repl/deadblock.hh"
#include "cache/slice_router.hh"
#include "obs/chrome_trace.hh"
#include "obs/timeseries.hh"
#include "sim/topology.hh"
#include "sim/verify.hh"

namespace tacsim {

namespace {

unsigned
log2OfPow2(std::uint64_t v)
{
    unsigned bits = 0;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

} // namespace

std::unique_ptr<ReplPolicy>
System::buildLlcPolicy(std::uint32_t sets, std::uint32_t ways,
                       std::uint64_t seed) const
{
    auto base = makePolicy(cfg_.llcPolicy, sets, ways, cfg_.llcOpts, seed);
    if (cfg_.llcDeadBlock)
        return std::make_unique<DeadBlockPolicy>(sets, ways, cfg_.llcOpts,
                                                 std::move(base));
    if (cfg_.llcCsalt)
        return std::make_unique<CsaltPolicy>(sets, ways, cfg_.llcOpts,
                                             std::move(base));
    return base;
}

System::System(SystemConfig cfg,
               std::vector<std::unique_ptr<Workload>> workloads)
    : cfg_(cfg), workloads_(std::move(workloads))
{
    // Reject shapes that cannot be built (bad slice/set ratios, zero
    // cores) before building anything.
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

    // Shared LLC: llcBytesOf(cfg) (default 2MB per core),
    // address-interleaved across llcSlices independent Cache instances.
    // Each slice indexes above the slice-select bits so sibling slices
    // cover disjoint sets of the monolithic geometry.
    const unsigned slices = cfg_.llcSlices;
    llcSliceMask_ = slices - 1;
    {
        const std::uint32_t ways = cfg_.llcPerCore.ways;
        const std::uint32_t setsTotal = static_cast<std::uint32_t>(
            llcBytesOf(cfg_) / (std::uint64_t{ways} * kBlockSize));
        const std::uint32_t mshrsTotal =
            cfg_.llcPerCore.mshrs * cfg_.numCores;

        for (unsigned s = 0; s < slices; ++s) {
            CacheParams p;
            p.name = slices > 1 ? "LLC." + std::to_string(s) : "LLC";
            p.ways = ways;
            p.sets = setsTotal / slices;
            p.setShift = kBlockBits + log2OfPow2(slices);
            p.latency = cfg_.llcPerCore.latency;
            p.mshrs = std::max<std::uint32_t>(1, mshrsTotal / slices);
            p.level = RespSource::LLC;
            p.idealTranslations = cfg_.idealLlcTranslations;
            p.idealReplays = cfg_.idealLlcReplays;
            p.atp = cfg_.atpLlc;
            p.profileRecall = cfg_.profileCacheRecall;
            p.arb.cores = cfg_.llcMshrQuotaPerCore ||
                    cfg_.llcBwTokensPerCore
                ? cfg_.numCores
                : 0;
            p.arb.smt = cfg_.threadsPerCore;
            p.arb.mshrQuota = cfg_.llcMshrQuotaPerCore;
            p.arb.bwTokens = cfg_.llcBwTokensPerCore;
            p.arb.bwWindow = cfg_.llcBwWindow;
            llc_.push_back(std::make_unique<Cache>(
                p, eq_, dram_.get(),
                buildLlcPolicy(p.sets, p.ways, cfg_.seed + s)));
        }
    }

    // The slice interconnect fronts the L2s only when there is
    // something to route; a monolithic LLC keeps the direct path (and
    // byte-identical behavior with the pre-topology composition).
    if (slices > 1) {
        std::vector<Cache *> homes;
        homes.reserve(slices);
        for (auto &s : llc_)
            homes.push_back(s.get());
        llcRouter_ = std::make_unique<SliceRouter>(
            "LLCRouter", eq_, std::move(homes), cfg_.threadsPerCore,
            cfg_.llcSliceHopLatency);
    }
    MemDevice *llcFront =
        llcRouter_ ? static_cast<MemDevice *>(llcRouter_.get())
                   : static_cast<MemDevice *>(llc_[0].get());

    if (cfg_.dram.tempo) {
        dram_->setTempoHook([this](Addr block, Addr ip) {
            llcSliceFor(block).issuePrefetch(block, PrefetchOrigin::Tempo,
                                             ip);
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
            l2_.push_back(std::make_unique<Cache>(p, eq_, llcFront,
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
            eq_, l1d_[c].get(), cfg_.ptw));
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
    for (std::size_t s = 0; s < llc_.size(); ++s) {
        const std::string ssuffix =
            llc_.size() > 1 ? "." + std::to_string(s) : "";
        llc_[s]->registerMetrics(registry_, "llc" + ssuffix);
    }
    if (llcRouter_)
        llcRouter_->registerMetrics(registry_, "noc");
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
            const std::string suffix =
                cfg_.numCores > 1 ? "." + std::to_string(c) : "";
            ptw_[c]->setTracer(tracer_.get(),
                               tracer_->addTrack("PTW" + suffix));
            l1d_[c]->setTracer(
                tracer_.get(), tracer_->addTrack(l1d_[c]->name()));
            l2_[c]->setTracer(
                tracer_.get(), tracer_->addTrack(l2_[c]->name()));
        }
        for (auto &s : llc_)
            s->setTracer(tracer_.get(), tracer_->addTrack(s->name()));
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
    std::vector<std::uint64_t> target(n);
    std::vector<bool> reached(n, false);
    for (std::size_t t = 0; t < n; ++t)
        target[t] = cores_[t]->retired() + instrPerThread;
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
            if (!reached[t] && cores_[t]->retired() >= target[t]) {
                reached[t] = true;
                finishCycle_[t] = cycle_;
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
System::quiesce()
{
    for (auto &c : cores_)
        c->beginDrain();
    while (true) {
        eq_.advanceTo(cycle_);
        bool robsEmpty = true;
        for (auto &c : cores_) {
            c->tick();
            if (!c->robEmpty())
                robsEmpty = false;
        }
        if (robsEmpty && eq_.empty())
            break;
        if (robsEmpty) {
            // Only background events remain (store writebacks, fills
            // with no waiter); jump straight to the next one.
            cycle_ = std::max(cycle_ + 1, eq_.nextEventCycle());
            continue;
        }
        ++cycle_;
    }
    for (auto &c : cores_)
        c->endDrain();

#ifdef TACSIM_VERIFY_ENABLED
    // The drain is a natural verification point: every structure is at
    // rest, so a full hierarchy walk is maximally meaningful.
    if (checker_)
        checker_->onDrain();
#endif
}

void
System::state(StateArchive &ar)
{
    if (sampler_)
        throw std::runtime_error(
            "checkpoint: time-series sampler attached (unsupported)");
    if (tracer_)
        throw std::runtime_error(
            "checkpoint: Chrome tracer attached (unsupported)");
    TACSIM_CHECK(eq_.empty() && eq_.now() == cycle_ &&
                 "checkpoint requires a quiesced or freshly built system");

    ar.section("clock");
    std::uint64_t seq = eq_.seq();
    std::uint64_t executed = eq_.executed();
    ar.io(cycle_);
    ar.io(seq);
    ar.io(executed);
    if (ar.loading()) {
        eq_.restoreClock(cycle_, seq, executed);
        cycleBase_ = cycle_;
        runStartCycle_ = cycle_;
    }

    ar.section("memory");
    frames_.state(ar);
    hostFrames_.state(ar);
    for (auto &pt : pageTables_)
        pt->state(ar);
    ar.expect(hostPageTable_ != nullptr, "the nested-translation mode");
    if (hostPageTable_)
        hostPageTable_->state(ar);
    dram_->state(ar);

    ar.section("caches");
    for (auto &s : llc_)
        s->state(ar);
    for (auto &c : l2_)
        c->state(ar);
    for (auto &c : l1d_)
        c->state(ar);

    ar.section("translation");
    for (auto &t : dtlb_)
        t->state(ar);
    for (auto &t : stlb_)
        t->state(ar);
    for (auto &p : ptw_)
        p->state(ar);

    ar.section("cores");
    for (auto &c : cores_)
        c->state(ar);
    for (auto &wl : workloads_)
        wl->state(ar);
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
