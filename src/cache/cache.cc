#include "cache/cache.hh"

#include <sstream>
#include <unordered_set>

#include "obs/chrome_trace.hh"
#include "obs/registry.hh"
#include "sim/verify.hh"

namespace tacsim {

Cache::Cache(CacheParams params, EventQueue &eq, MemDevice *lower,
             std::unique_ptr<ReplPolicy> policy,
             std::unique_ptr<Prefetcher> prefetcher)
    : params_(std::move(params)),
      eq_(eq),
      lower_(lower),
      policy_(std::move(policy)),
      prefetcher_(std::move(prefetcher)),
      indexer_(params_.sets, kBlockBits),
      blocks_(static_cast<std::size_t>(params_.sets) * params_.ways),
      mshrFile_(params_.mshrs),
      mshrSlots_(params_.mshrs)
{
    freeMshrs_.reserve(params_.mshrs);
    for (std::uint32_t slot = params_.mshrs; slot-- > 0;)
        freeMshrs_.push_back(slot);
    if (prefetcher_)
        prefetcher_->setIssuer(this);
    if (params_.profileRecall)
        profiler_ = std::make_unique<RecallProfiler>(params_.sets);
}

void
Cache::resetStats()
{
    stats_.reset();
    if (profiler_)
        profiler_->reset();
    policy_->resetStats();
}

void
Cache::registerMetrics(obs::Registry &registry, const std::string &prefix)
{
    static const char *const kCatSlug[kNumBlockCats] = {
        "nonreplay", "replay", "pt_leaf", "pt_upper", "prefetch",
        "writeback",
    };
    for (std::size_t c = 0; c < kNumBlockCats; ++c) {
        const std::string cat = std::string(".") + kCatSlug[c];
        registry.addCounter(prefix + ".accesses" + cat,
                            &stats_.accesses[c]);
        registry.addCounter(prefix + ".hits" + cat, &stats_.hits[c]);
        registry.addCounter(prefix + ".misses" + cat, &stats_.misses[c]);
    }
    registry.addCounter(prefix + ".fills", &stats_.fills);
    registry.addCounter(prefix + ".bypassed_fills",
                        &stats_.bypassedFills);
    registry.addCounter(prefix + ".writebacks_out",
                        &stats_.writebacksOut);
    registry.addCounter(prefix + ".mshr.merges", &stats_.mshrMerges);
    registry.addCounter(prefix + ".mshr.full_events",
                        &stats_.mshrFullEvents);
    registry.addCounter(prefix + ".pf.issued", &stats_.prefetchIssued);
    registry.addCounter(prefix + ".pf.dropped", &stats_.prefetchDropped);
    registry.addCounter(prefix + ".pf.useful", &stats_.prefetchUseful);
    registry.addCounter(prefix + ".pf.late", &stats_.prefetchLate);
    registry.addCounter(prefix + ".atp.issued", &stats_.atpIssued);
    registry.addCounter(prefix + ".atp.useful", &stats_.atpUseful);
    registry.addCounter(prefix + ".tempo.useful", &stats_.tempoUseful);
    registry.addCounter(prefix + ".ideal_grants", &stats_.idealGrants);
    if (profiler_) {
        registry.addHistogram(prefix + ".recall.translation",
                              &profiler_->translationHist());
        registry.addHistogram(prefix + ".recall.replay",
                              &profiler_->replayHist());
        registry.addHistogram(prefix + ".recall.data",
                              &profiler_->nonReplayHist());
    }
    policy_->registerMetrics(registry, prefix + ".repl");
    if (prefetcher_)
        prefetcher_->registerMetrics(registry, prefix + ".pf");
    registry.addResetHook([this] { resetStats(); });
}

void
Cache::setTracer(obs::ChromeTracer *tracer, std::uint32_t track)
{
    tracer_ = tracer;
    track_ = track;
    if (tracer_)
        mshrNameId_ = tracer_->intern("mshr_occupancy");
}

int
Cache::findWay(std::uint32_t set, Addr blockAddr) const
{
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (blocks_[base + w].valid && blocks_[base + w].tag == blockAddr)
            return static_cast<int>(w);
    }
    return -1;
}

bool
Cache::contains(Addr paddr) const
{
    return findWay(setIndex(paddr), blockAlign(paddr)) >= 0;
}

void
Cache::access(const MemRequestPtr &req)
{
    if (req->type == ReqType::Writeback) {
        // Writebacks update in place on hit; on miss they continue down
        // without allocating (non-inclusive write-no-allocate for WBs).
        const Addr blockAddr = req->blockAddr();
        const std::uint32_t set = setIndex(blockAddr);
        const int way = findWay(set, blockAddr);
        if (way >= 0) {
            blocks_[static_cast<std::size_t>(set) * params_.ways + way]
                .dirty = true;
            req->complete(eq_.now(), params_.level);
        } else if (lower_) {
            lower_->access(req);
        } else {
            req->complete(eq_.now(), RespSource::DRAM);
        }
        return;
    }

    MemRequestPtr keep = req;
    eq_.schedule(params_.latency, [this, keep] { lookup(keep); });
}

void
Cache::lookup(const MemRequestPtr &req, bool countStats)
{
    const Addr blockAddr = req->blockAddr();
    const std::uint32_t set = setIndex(blockAddr);
    const int way = findWay(set, blockAddr);
    AccessInfo ai = accessInfoFor(*req);

    const auto cat = static_cast<std::size_t>(ai.cat);
    if (countStats) {
        ++stats_.accesses[cat];
        if (profiler_)
            profiler_->onAccess(set, blockAddr, ai.cat);
    }

    if (way >= 0) {
        if (countStats)
            ++stats_.hits[cat];
        BlockMeta &b =
            blocks_[static_cast<std::size_t>(set) * params_.ways + way];
        if (req->type == ReqType::Store)
            b.dirty = true;

        // Prefetch-accuracy accounting: first touch of a prefetched
        // block by real traffic counts it useful.
        if (b.prefetchOrigin != PrefetchOrigin::None && !b.reused &&
            req->type != ReqType::Prefetch) {
            ++stats_.prefetchUseful;
            if (b.prefetchOrigin == PrefetchOrigin::Atp)
                ++stats_.atpUseful;
            else if (b.prefetchOrigin == PrefetchOrigin::Tempo)
                ++stats_.tempoUseful;
        }

        if (req->type != ReqType::Prefetch) {
            b.reused = true;
            policy_->onHit(set, static_cast<std::uint32_t>(way), ai);
        }

        if (countStats && prefetcher_ && req->isDemand())
            prefetcher_->onAccess(ai, true);

        // ATP (paper §IV): a leaf-translation hit at this level means
        // the replay load's physical line is now known — prefetch it.
        if (params_.atp && req->isLeafTranslation() &&
            req->replayBlockPaddr != 0) {
            ++stats_.atpIssued;
            issuePrefetch(req->replayBlockPaddr, PrefetchOrigin::Atp,
                          req->ip);
        }

        req->complete(eq_.now(), params_.level);
        return;
    }

    // Miss.
    if (countStats) {
        ++stats_.misses[cat];
        if (prefetcher_ && req->isDemand())
            prefetcher_->onAccess(ai, false);
    }

    // Ideal modes (paper Fig. 2): grant the hit at this level's latency
    // but still send the miss through the MSHRs so bandwidth is charged.
    // A re-entering request already received its grant on first entry
    // (complete() is idempotent anyway).
    const bool idealHit = countStats &&
        ((params_.idealTranslations && req->isLeafTranslation()) ||
         (params_.idealReplays && req->isDemand() && req->isReplay));
    if (idealHit) {
        ++stats_.idealGrants;
        req->complete(eq_.now(),
                      params_.level == RespSource::LLC
                          ? RespSource::IdealLLC
                          : RespSource::IdealL2C);
    }

    handleMiss(req, ai);
}

void
Cache::handleMiss(const MemRequestPtr &req, const AccessInfo &ai)
{
    const Addr blockAddr = req->blockAddr();
    if (const std::uint32_t *slot = mshrSlots_.find(blockAddr)) {
        MshrEntry &e = mshrFile_[*slot];
        ++stats_.mshrMerges;
        if (req->type != ReqType::Prefetch) {
            // A demand merging into a prefetch-initiated MSHR is a late
            // prefetch: partially hidden latency. The fill is no longer
            // a prefetch fill, so drop the origin — otherwise the data
            // prefetcher would still train on it via onPrefetchFill and
            // pollute its accuracy feedback.
            if (!e.demandWaiting) {
                ++stats_.prefetchLate;
                e.origin = PrefetchOrigin::None;
            }
            e.demandWaiting = true;
            // Reclassify the eventual fill with the demand's identity so
            // replacement sees replay/translation flags, not Prefetch.
            if (e.fillInfo.cat == BlockCat::Prefetch)
                e.fillInfo = ai;
        }
        if (req->type == ReqType::Store)
            e.makeDirty = true;
        e.addWaiter(req);
        return;
    }

    const bool isPrefetch = req->type == ReqType::Prefetch;
    const auto freeMshrs = static_cast<std::uint32_t>(freeMshrs_.size());
    if (freeMshrs == 0 ||
        (isPrefetch && freeMshrs <= params_.mshrReserveForDemand)) {
        if (isPrefetch) {
            ++stats_.prefetchDropped;
            req->complete(eq_.now(), params_.level);
            return;
        }
        ++stats_.mshrFullEvents;
        pending_.push_back(req);
        return;
    }

    const std::uint32_t slot = freeMshrs_.back();
    freeMshrs_.pop_back();
    MshrEntry &e = mshrFile_[slot];
    e.fillInfo = ai;
    e.demandWaiting = !isPrefetch;
    e.makeDirty = req->type == ReqType::Store;
    e.origin = req->prefetchOrigin;
    e.addWaiter(req);
    mshrSlots_.insert(blockAddr, slot);
    if (tracer_)
        tracer_->counter(track_, mshrNameId_, eq_.now(),
                         double(liveMshrs()));
    forwardMiss(slot);
}

void
Cache::MshrEntry::addWaiter(const MemRequestPtr &req)
{
    TACSIM_DCHECK(!req->nextWaiter && "request already waits on an MSHR");
    MemRequest *tail = req.get();
    if (lastWaiter)
        lastWaiter->nextWaiter = req;
    else
        firstWaiter = req;
    lastWaiter = tail;
}

void
Cache::forwardMiss(std::uint32_t slot)
{
    const MshrEntry &entry = mshrFile_[slot];
    const MemRequest &primary = *entry.firstWaiter;
    // Build the child request that travels to the lower level. It
    // carries the classification flags so lower caches can apply their
    // own translation-conscious decisions (and trigger ATP/TEMPO).
    MemRequestPtr child = makeRequest();
    child->paddr = entry.fillInfo.blockAddr;
    child->vaddr = primary.vaddr;
    child->ip = primary.ip;
    child->type = primary.type == ReqType::Store
        ? ReqType::Load // stores fetch ownership as reads below L1
        : primary.type;
    child->ptLevel = primary.ptLevel;
    child->leafPte = primary.leafPte;
    child->pageSize = primary.pageSize;
    child->isReplay = primary.isReplay;
    child->replayBlockPaddr = primary.replayBlockPaddr;
    child->prefetchOrigin = primary.prefetchOrigin;
    child->cpu = primary.cpu;
    child->issuedAt = eq_.now();
    child->onComplete = [this, slot](MemRequest &resp) {
        handleFill(slot, resp.source);
    };

    if (lower_) {
        lower_->access(child);
    } else {
        // Memoryless bottom (unit tests): respond immediately.
        child->complete(eq_.now(), RespSource::DRAM);
    }
}

void
Cache::handleFill(std::uint32_t slot, RespSource src)
{
    // Take what the fill needs and free the slot before any side
    // effect: a prefetch this fill triggers, or a request it lets in,
    // may claim the slot and overwrite the entry.
    MshrEntry &e = mshrFile_[slot];
    TACSIM_DCHECK(e.firstWaiter && "fill for a free MSHR slot");
    const AccessInfo fillInfo = e.fillInfo;
    const bool makeDirty = e.makeDirty;
    const PrefetchOrigin origin = e.origin;
    MemRequestPtr waiter = std::move(e.firstWaiter);
    e.lastWaiter = nullptr;
    const Addr blockAddr = fillInfo.blockAddr;
    mshrSlots_.erase(blockAddr);
    freeMshrs_.push_back(slot);
    if (tracer_)
        tracer_->counter(track_, mshrNameId_, eq_.now(),
                         double(liveMshrs()));

    ++stats_.fills;
    const std::uint32_t set = setIndex(blockAddr);
    if (policy_->bypassFill(set, fillInfo)) {
        ++stats_.bypassedFills;
    } else {
        installBlock(blockAddr, fillInfo, makeDirty);
        if (prefetcher_ && origin == PrefetchOrigin::DataPrefetcher)
            prefetcher_->onPrefetchFill(blockAddr);
    }

    while (waiter) {
        MemRequestPtr next = std::move(waiter->nextWaiter);
        waiter->complete(eq_.now(), src);
        waiter = std::move(next);
    }

    drainPending();
}

void
Cache::installBlock(Addr blockAddr, const AccessInfo &ai, bool dirty)
{
    const std::uint32_t set = setIndex(blockAddr);
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;

    // Prefer an invalid way.
    std::int32_t way = -1;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (!blocks_[base + w].valid) {
            way = static_cast<std::int32_t>(w);
            break;
        }
    }
    if (way < 0) {
        way = static_cast<std::int32_t>(
            policy_->victim(set, ai, &blocks_[base]));
        evictWay(set, static_cast<std::uint32_t>(way));
    }

    BlockMeta &b = blocks_[base + static_cast<std::uint32_t>(way)];
    b.tag = blockAddr;
    b.valid = true;
    b.dirty = dirty || ai.cat == BlockCat::Writeback;
    b.reused = false;
    b.cat = ai.cat;
    b.prefetchOrigin =
        ai.cat == BlockCat::Prefetch ? ai.origin : PrefetchOrigin::None;
    b.fillIp = ai.ip;
    policy_->onFill(set, static_cast<std::uint32_t>(way), ai);
}

void
Cache::evictWay(std::uint32_t set, std::uint32_t way)
{
    BlockMeta &b =
        blocks_[static_cast<std::size_t>(set) * params_.ways + way];
    if (!b.valid)
        return;
    policy_->onEvict(set, way, b);
    if (profiler_)
        profiler_->onEvict(set, b.tag, b.cat);
    if (b.dirty && lower_) {
        ++stats_.writebacksOut;
        MemRequestPtr wb = makeRequest();
        wb->paddr = b.tag;
        wb->type = ReqType::Writeback;
        wb->issuedAt = eq_.now();
        lower_->access(wb);
    }
    // Clear all metadata, not just the valid bit: a replay/translation
    // category or prefetch origin surviving eviction would silently
    // mis-train the next policy decision in this frame.
    b.valid = false;
    b.dirty = false;
    b.reused = false;
    b.cat = BlockCat::NonReplay;
    b.prefetchOrigin = PrefetchOrigin::None;
}

void
Cache::drainPending()
{
    // A drained request hits, merges or takes a free MSHR; only a
    // demand that finds none parks again, and that ends the loop.
    while (!pending_.empty() && !freeMshrs_.empty()) {
        MemRequestPtr req = pending_.front();
        pending_.pop_front();
        // Re-enter through lookup, not handleMiss: the fill that freed
        // this MSHR may have installed the very line this request wants
        // (two demands to one block can both sit in pending_), and
        // re-injecting at handleMiss would re-fetch and re-install it.
        lookup(req, /*countStats=*/false);
    }
}

void
Cache::issuePrefetch(Addr paddr, PrefetchOrigin origin, Addr ip)
{
    const Addr blockAddr = blockAlign(paddr);
    // Cheap duplicate filters: already resident or already in flight.
    if (contains(blockAddr) || mshrSlots_.contains(blockAddr))
        return;

    ++stats_.prefetchIssued;
    MemRequestPtr req = makeRequest();
    req->paddr = blockAddr;
    req->ip = ip;
    req->type = ReqType::Prefetch;
    req->prefetchOrigin = origin;
    req->issuedAt = eq_.now();
    // Prefetches skip the front-side latency; they start at the MSHRs.
    AccessInfo ai = accessInfoFor(*req);
    ++stats_.accesses[static_cast<std::size_t>(BlockCat::Prefetch)];
    ++stats_.misses[static_cast<std::size_t>(BlockCat::Prefetch)];
    handleMiss(req, ai);
}

namespace {

std::string
dumpBlock(const BlockMeta &b)
{
    std::ostringstream os;
    os << std::hex << "tag=0x" << b.tag << std::dec
       << " valid=" << b.valid << " dirty=" << b.dirty
       << " reused=" << b.reused
       << " cat=" << static_cast<int>(b.cat)
       << " origin=" << static_cast<int>(b.prefetchOrigin)
       << std::hex << " fillIp=0x" << b.fillIp;
    return os.str();
}

} // namespace

void
Cache::checkInvariants() const
{
    using verify::InvariantViolation;
    const std::string &who = params_.name;

    // Per-class accounting: every counted access is either a hit or a
    // miss, never both, never neither.
    for (std::size_t cat = 0; cat < kNumBlockCats; ++cat) {
        if (stats_.accesses[cat] != stats_.hits[cat] + stats_.misses[cat]) {
            std::ostringstream os;
            os << "class " << cat << ": accesses=" << stats_.accesses[cat]
               << " != hits=" << stats_.hits[cat]
               << " + misses=" << stats_.misses[cat];
            throw InvariantViolation(who, "stats-accounting", os.str());
        }
    }

    for (std::uint32_t set = 0; set < params_.sets; ++set) {
        const std::size_t base =
            static_cast<std::size_t>(set) * params_.ways;
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            const BlockMeta &b = blocks_[base + w];
            if (!b.valid) {
                // Eviction must wipe metadata; a replay category or
                // prefetch origin surviving here would poison the next
                // occupant's policy training.
                if (b.dirty || b.reused ||
                    b.cat != BlockCat::NonReplay ||
                    b.prefetchOrigin != PrefetchOrigin::None)
                    throw InvariantViolation(who, "stale-meta",
                                             dumpBlock(b), set, w);
                continue;
            }
            if (b.tag != blockAlign(b.tag))
                throw InvariantViolation(who, "tag-align", dumpBlock(b),
                                         set, w);
            if (setIndex(b.tag) != set)
                throw InvariantViolation(who, "tag-set-mismatch",
                                         dumpBlock(b), set, w);
            if (b.prefetchOrigin != PrefetchOrigin::None &&
                b.cat != BlockCat::Prefetch)
                throw InvariantViolation(who, "prefetch-origin",
                                         dumpBlock(b), set, w);
            for (std::uint32_t w2 = w + 1; w2 < params_.ways; ++w2) {
                const BlockMeta &other = blocks_[base + w2];
                if (other.valid && other.tag == b.tag) {
                    std::ostringstream os;
                    os << "ways " << w << " and " << w2
                       << " both hold " << dumpBlock(b);
                    throw InvariantViolation(who, "duplicate-tag",
                                             os.str(), set, w2);
                }
            }
        }
    }

    // MSHR file: every slot is either indexed exactly once or on the
    // free stack, and a free slot holds no waiters.
    std::vector<std::uint32_t> claims(params_.mshrs, 0);
    const auto claim = [&](std::uint32_t slot) {
        if (slot < params_.mshrs && claims[slot]++ == 0)
            return;
        std::ostringstream os;
        os << "slot " << slot << " of " << params_.mshrs
           << (slot < params_.mshrs ? " is indexed or freed twice"
                                    : " is out of range");
        throw InvariantViolation(who, "mshr-slot", os.str());
    };
    for (const std::uint32_t slot : freeMshrs_) {
        claim(slot);
        if (mshrFile_[slot].firstWaiter || mshrFile_[slot].lastWaiter)
            throw InvariantViolation(
                who, "mshr-free-waiters",
                "free slot " + std::to_string(slot) + " holds waiters");
    }
    mshrSlots_.forEach([&](Addr addr, std::uint32_t slot) {
        claim(slot);
        const MshrEntry &e = mshrFile_[slot];
        const std::uint32_t set = setIndex(addr);
        std::ostringstream ctx;
        ctx << std::hex << "mshr 0x" << addr << std::dec
            << " slot=" << slot
            << " demandWaiting=" << e.demandWaiting
            << " makeDirty=" << e.makeDirty
            << " origin=" << static_cast<int>(e.origin);

        if (addr != blockAlign(addr))
            throw InvariantViolation(who, "mshr-align", ctx.str(), set);
        if (findWay(set, addr) >= 0)
            throw InvariantViolation(who, "mshr-resident", ctx.str(), set);
        if (!e.firstWaiter)
            throw InvariantViolation(who, "mshr-waiters", ctx.str(), set);

        // One pass over the list, stopping at the first repeat: a
        // corrupted, cyclic list throws instead of looping forever.
        bool anyDemand = false;
        bool anyStore = false;
        const MemRequest *tail = nullptr;
        // tacsim-lint: allow(hot-path-container) checkInvariants-only duplicate detection, never on the simulated path
        std::unordered_set<const MemRequest *> unique;
        for (const MemRequest *waiter = e.firstWaiter.get(); waiter;
             waiter = waiter->nextWaiter.get()) {
            if (!unique.insert(waiter).second)
                throw InvariantViolation(who, "mshr-duplicate-waiter",
                                         ctx.str(), set);
            if (waiter->blockAddr() != addr)
                throw InvariantViolation(who, "mshr-waiter-addr",
                                         ctx.str(), set);
            anyDemand |= waiter->type != ReqType::Prefetch;
            anyStore |= waiter->type == ReqType::Store;
            tail = waiter;
        }
        if (e.lastWaiter != tail)
            throw InvariantViolation(who, "mshr-waiters",
                                     ctx.str() + " (tail link stale)", set);
        if (e.demandWaiting != anyDemand)
            throw InvariantViolation(who, "mshr-demand-flag", ctx.str(),
                                     set);
        if (e.makeDirty != anyStore)
            throw InvariantViolation(who, "mshr-dirty-flag", ctx.str(),
                                     set);
        // Origin bookkeeping: a fill a demand is waiting on must not
        // train the prefetcher (PR 1's prefetch-origin leak); a pure
        // prefetch must know who issued it.
        if (e.demandWaiting && e.origin != PrefetchOrigin::None)
            throw InvariantViolation(who, "mshr-origin", ctx.str(), set);
        if (!e.demandWaiting && e.origin == PrefetchOrigin::None)
            throw InvariantViolation(who, "mshr-origin", ctx.str(), set);
        if (e.fillInfo.blockAddr != addr)
            throw InvariantViolation(who, "mshr-fill-addr", ctx.str(),
                                     set);
        if (e.demandWaiting == (e.fillInfo.cat == BlockCat::Prefetch))
            throw InvariantViolation(who, "mshr-fill-class", ctx.str(),
                                     set);
    });
    for (std::uint32_t slot = 0; slot < params_.mshrs; ++slot) {
        if (claims[slot] == 0)
            throw InvariantViolation(
                who, "mshr-slot",
                "slot " + std::to_string(slot) +
                    " is neither indexed nor free");
    }

    // Requests only queue while every MSHR is taken, and only demands
    // (prefetches are dropped, not queued).
    for (const auto &req : pending_)
        if (req->type == ReqType::Prefetch)
            throw InvariantViolation(who, "pending-class",
                                     "prefetch parked in pending queue");
    if (!pending_.empty() && !freeMshrs_.empty()) {
        std::ostringstream os;
        os << pending_.size() << " queued with only " << liveMshrs()
           << "/" << params_.mshrs << " MSHRs in use";
        throw InvariantViolation(who, "pending-backlog", os.str());
    }

    policy_->checkInvariants(who);
}

} // namespace tacsim
