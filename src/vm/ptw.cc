#include "vm/ptw.hh"

#include <algorithm>
#include <sstream>

#include "obs/chrome_trace.hh"
#include "obs/registry.hh"
#include "sim/verify.hh"

namespace tacsim {

PageTableWalker::PageTableWalker(EventQueue &eq, MemDevice *port, Params p,
                                 std::string name)
    : eq_(eq), port_(port), params_(p), name_(std::move(name)),
      pscs_(p.pscSizes, p.pscLatency, name_ + "/")
{}

void
PageTableWalker::addAddressSpace(std::uint16_t asid, PageTable *pt)
{
    for (auto &[id, table] : spaces_) {
        if (id == asid) {
            table = pt;
            return;
        }
    }
    spaces_.emplace_back(asid, pt);
}

void
PageTableWalker::setNestedTranslation(PageTable *host)
{
    hostTable_ = host;
    if (host && !hostPscs_) {
        hostPscs_ = std::make_unique<PagingStructureCaches>(
            params_.pscSizes, params_.pscLatency, name_ + "/host-");
    }
}

void
PageTableWalker::resetStats()
{
    stats_.reset();
    pscs_.resetStats();
    if (hostPscs_)
        hostPscs_->resetStats();
}

void
PageTableWalker::registerMetrics(obs::Registry &registry,
                                 const std::string &prefix)
{
    registry.addCounter(prefix + ".walks", &stats_.walks);
    registry.addCounter(prefix + ".merged", &stats_.merged);
    registry.addCounter(prefix + ".queued", &stats_.queued);
    for (unsigned l = 1; l <= kPtLevels; ++l)
        registry.addCounter(prefix + ".reads.l" + std::to_string(l),
                            &stats_.levelReads[l - 1]);
    for (PageSize ps : kAllPageSizes) {
        registry.addCounter(
            prefix + ".walks_" + pageSizeName(ps),
            &stats_.walksBySize[static_cast<unsigned>(ps)]);
    }
    registry.addCounter(prefix + ".leaf_from.l1d", &stats_.leafFromL1D);
    registry.addCounter(prefix + ".leaf_from.l2c", &stats_.leafFromL2C);
    registry.addCounter(prefix + ".leaf_from.llc", &stats_.leafFromLLC);
    registry.addCounter(prefix + ".leaf_from.dram", &stats_.leafFromDram);
    registry.addCounter(prefix + ".leaf_from.ideal",
                        &stats_.leafFromIdeal);
    registry.addHistogram(prefix + ".walk_latency", &stats_.walkLatency);
    registry.addHistogram(prefix + ".walk_refs", &stats_.walkRefs);
    const PscStats &psc = pscs_.stats();
    registry.addCounter(prefix + ".psc.lookups", &psc.lookups);
    registry.addCounter(prefix + ".psc.full_misses", &psc.fullMisses);
    // PSCL_l exists for l in 2..kPtLevels (hitsAtLevel is indexed l-1).
    for (unsigned l = 2; l <= kPtLevels; ++l)
        registry.addCounter(prefix + ".psc.hits.pscl" + std::to_string(l),
                            &psc.hitsAtLevel[l - 1]);
    if (hostTable_) {
        registry.addCounter(prefix + ".host_walks", &stats_.hostWalks);
        for (unsigned l = 1; l <= kPtLevels; ++l)
            registry.addCounter(
                prefix + ".host_reads.l" + std::to_string(l),
                &stats_.hostLevelReads[l - 1]);
        const PscStats &hpsc = hostPscs_->stats();
        registry.addCounter(prefix + ".host_psc.lookups", &hpsc.lookups);
        registry.addCounter(prefix + ".host_psc.full_misses",
                            &hpsc.fullMisses);
        for (unsigned l = 2; l <= kPtLevels; ++l)
            registry.addCounter(
                prefix + ".host_psc.hits.pscl" + std::to_string(l),
                &hpsc.hitsAtLevel[l - 1]);
    }
    registry.addResetHook([this] { resetStats(); });
}

void
PageTableWalker::setTracer(obs::ChromeTracer *tracer, std::uint32_t track)
{
    tracer_ = tracer;
    track_ = track;
    if (tracer_)
        walkNameId_ = tracer_->intern("walk");
}

void
PageTableWalker::walk(std::uint16_t asid, Addr vaddr, Addr ip,
                      std::uint16_t cpu, WalkCallback cb)
{
    const std::uint64_t key = keyOf(asid, vaddr);
    if (std::shared_ptr<WalkState> *live = inflight_.find(key)) {
        ++stats_.merged;
        (*live)->callbacks.push_back(std::move(cb));
        return;
    }
    // A duplicate may also be waiting behind the concurrency limit; a
    // second WalkState for the same key would later overwrite its
    // inflight_ slot and desync active_ from the map.
    for (auto &queued : queue_) {
        if (keyOf(queued->asid, queued->vaddr) == key) {
            ++stats_.merged;
            queued->callbacks.push_back(std::move(cb));
            return;
        }
    }

    auto ws = std::make_unique<WalkState>();
    ws->asid = asid;
    ws->vaddr = vaddr;
    ws->ip = ip;
    ws->cpu = cpu;
    ws->callbacks.push_back(std::move(cb));

    if (active_ >= params_.maxConcurrentWalks) {
        ++stats_.queued;
        queue_.push_back(std::move(ws));
        return;
    }
    startWalk(std::move(ws));
}

void
PageTableWalker::appendHostWalk(WalkState &ws, Addr gpa,
                                const PageTable::WalkResult &h)
{
    ++stats_.hostWalks;
    Addr skipFrame = 0;
    unsigned start = hostPscs_->lookup(kHostAsid, gpa, skipFrame);
    start = std::max(start, h.leafLevel);
    for (unsigned level = start; level >= h.leafLevel; --level) {
        PendingRead r;
        r.paddr = h.pteAddr[level - 1];
        r.ptLevel = static_cast<std::uint8_t>(level);
        r.isHost = true;
        ws.reads.push_back(r);
    }
    // Reads within one walk are serial, so by the time the next sub-walk
    // starts these fills have architecturally happened.
    for (unsigned level = start; level >= 2; --level)
        hostPscs_->fill(kHostAsid, gpa, level, h.tableFrame[level - 2],
                        h.leafLevel);
}

void
PageTableWalker::startWalk(std::unique_ptr<WalkState> ws)
{
    ++stats_.walks;
    ++active_;

    PageTable *pt = nullptr;
    for (const auto &[id, table] : spaces_) {
        if (id == ws->asid) {
            pt = table;
            break;
        }
    }
    TACSIM_CHECK(pt != nullptr && "walk for an ASID with no page table");
    ws->info = pt->walk(ws->vaddr);
    ws->startedAt = eq_.now();

    Addr skipFrame = 0;
    ws->startLevel = pscs_.lookup(ws->asid, ws->vaddr, skipFrame);
    // A PSC hit can at best skip down to the mapping's leaf level; a 2M
    // walk never reads a level-1 table because none exists.
    ws->startLevel = std::max(ws->startLevel, ws->info.leafLevel);

    if (!hostTable_) {
        for (unsigned level = ws->startLevel;
             level >= ws->info.leafLevel; --level) {
            PendingRead r;
            r.paddr = ws->info.pteAddr[level - 1];
            r.ptLevel = static_cast<std::uint8_t>(level);
            r.leafPte = (level == ws->info.leafLevel);
            if (r.leafPte)
                r.replayBlockPaddr = blockAlign(ws->info.dataPaddr);
            ws->reads.push_back(r);
        }
        ws->finalPaddr = ws->info.dataPaddr;
        ws->fillSize = ws->info.pageSize;
        ws->fillBase = pageAlign(ws->finalPaddr, ws->fillSize);
    } else {
        // Nested 2D walk: the data address the replay load needs is only
        // known through the host dimension, so resolve it functionally
        // up front — the guest leaf read must carry replayBlockPaddr.
        // Walking it first also keeps first-touch host frames in the
        // order data, then page-table levels.
        const PageTable::WalkResult dataH =
            hostTable_->walk(ws->info.dataPaddr);
        ws->finalPaddr = dataH.dataPaddr;
        for (unsigned level = ws->startLevel;
             level >= ws->info.leafLevel; --level) {
            const Addr gpa = ws->info.pteAddr[level - 1];
            const PageTable::WalkResult h = hostTable_->walk(gpa);
            appendHostWalk(*ws, gpa, h);
            PendingRead r;
            r.paddr = h.dataPaddr;
            r.ptLevel = static_cast<std::uint8_t>(level);
            r.leafPte = (level == ws->info.leafLevel);
            if (r.leafPte)
                r.replayBlockPaddr = blockAlign(ws->finalPaddr);
            ws->reads.push_back(r);
        }
        // One more host sub-walk translates the guest data address itself.
        appendHostWalk(*ws, ws->info.dataPaddr, dataH);
        // The STLB can only cache the translation at the granule both
        // dimensions agree on: min(guest page, host page).
        ws->fillSize = minPageSize(ws->info.pageSize, dataH.pageSize);
        ws->fillBase = pageAlign(ws->finalPaddr, ws->fillSize);
    }
    TACSIM_DCHECK(!ws->reads.empty());

    std::shared_ptr<WalkState> shared(std::move(ws));
    inflight_.insert(keyOf(shared->asid, shared->vaddr), shared);

    // PSC search costs one cycle, then the first read issues.
    eq_.schedule(pscs_.latency(), [this, shared] { issueNext(shared); });
}

void
PageTableWalker::issueNext(std::shared_ptr<WalkState> ws)
{
    const PendingRead &r = ws->reads[ws->nextRead];
    TACSIM_DCHECK(r.ptLevel >= 1 && r.ptLevel <= kPtLevels);
    if (r.isHost)
        ++stats_.hostLevelReads[r.ptLevel - 1];
    else
        ++stats_.levelReads[r.ptLevel - 1];

    MemRequestPtr req = makeRequest();
    req->paddr = r.paddr;
    req->vaddr = ws->vaddr;
    req->ip = ws->ip;
    req->type = ReqType::Translation;
    req->ptLevel = r.ptLevel;
    req->leafPte = r.leafPte;
    req->cpu = ws->cpu;
    req->issuedAt = eq_.now();
    if (r.leafPte) {
        // IsLeafLevel + upper page-offset bits: tell the hierarchy which
        // data line the replay load will need, enabling ATP and TEMPO.
        req->replayBlockPaddr = r.replayBlockPaddr;
    }

    const bool leaf = r.leafPte;
    req->onComplete = [this, ws, leaf](MemRequest &resp) {
        if (leaf)
            ws->leafSource = resp.source;
        if (++ws->nextRead < ws->reads.size())
            issueNext(ws);
        else
            finishWalk(ws);
    };
    port_->access(req);
}

void
PageTableWalker::finishWalk(const std::shared_ptr<WalkState> &ws)
{
    switch (ws->leafSource) {
      case RespSource::L1D: ++stats_.leafFromL1D; break;
      case RespSource::L2C: ++stats_.leafFromL2C; break;
      case RespSource::LLC: ++stats_.leafFromLLC; break;
      case RespSource::DRAM: ++stats_.leafFromDram; break;
      default: ++stats_.leafFromIdeal; break;
    }
    stats_.walkLatency.add(eq_.now() - ws->startedAt);
    stats_.walkRefs.add(ws->reads.size());
    ++stats_.walksBySize[static_cast<unsigned>(ws->fillSize)];
    if (tracer_)
        tracer_->span(track_, walkNameId_, ws->startedAt, eq_.now());

    // Fill the PSCs for every level we walked: PSCL_l learns the frame of
    // the level-(l-1) table. fill() drops levels at or below the leaf.
    for (unsigned level = ws->startLevel; level >= 2; --level)
        pscs_.fill(ws->asid, ws->vaddr, level,
                   ws->info.tableFrame[level - 2], ws->info.leafLevel);

    if (stlb_)
        stlb_->fill(ws->asid, ws->vaddr, ws->fillBase, ws->fillSize);

    inflight_.erase(keyOf(ws->asid, ws->vaddr));
    --active_;

    for (auto &cb : ws->callbacks)
        cb(ws->finalPaddr, ws->fillSize, ws->leafSource);

    drainQueue();
}

void
PageTableWalker::drainQueue()
{
    while (!queue_.empty() && active_ < params_.maxConcurrentWalks) {
        auto ws = std::move(queue_.front());
        queue_.pop_front();
        startWalk(std::move(ws));
    }
}

void
PageTableWalker::checkInvariants() const
{
    using verify::InvariantViolation;
    const std::string &who = name_;

    if (active_ != inflight_.size()) {
        std::ostringstream os;
        os << "active=" << active_ << " but " << inflight_.size()
           << " walks in flight";
        throw InvariantViolation(who, "active-count", os.str());
    }
    if (active_ > params_.maxConcurrentWalks) {
        std::ostringstream os;
        os << "active=" << active_ << " exceeds bound "
           << params_.maxConcurrentWalks;
        throw InvariantViolation(who, "active-bound", os.str());
    }
    if (!queue_.empty() && active_ < params_.maxConcurrentWalks) {
        std::ostringstream os;
        os << queue_.size() << " walks queued with only " << active_
           << "/" << params_.maxConcurrentWalks << " active";
        throw InvariantViolation(who, "queue-backlog", os.str());
    }
    inflight_.forEach([&](std::uint64_t key,
                          const std::shared_ptr<WalkState> &ws) {
        std::ostringstream ctx;
        ctx << std::hex << "walk asid=" << ws->asid << " vaddr=0x"
            << ws->vaddr << std::dec << " startLevel=" << ws->startLevel
            << " leafLevel=" << ws->info.leafLevel;
        if (key != keyOf(ws->asid, ws->vaddr))
            throw InvariantViolation(who, "inflight-key", ctx.str());
        if (ws->callbacks.empty())
            throw InvariantViolation(who, "walk-callbacks", ctx.str());
        if (ws->startLevel < 1 || ws->startLevel > kPtLevels)
            throw InvariantViolation(who, "level-range", ctx.str());
        if (ws->startLevel < ws->info.leafLevel)
            throw InvariantViolation(who, "start-below-leaf", ctx.str());
    });
    pscs_.checkInvariants();
    if (hostPscs_)
        hostPscs_->checkInvariants();
}

} // namespace tacsim
