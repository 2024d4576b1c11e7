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
      pscs_(p.pscSizes, p.pscLatency, name_ + "/"),
      slots_(p.maxConcurrentWalks),
      queue_(kInitialQueue),
      walkIndex_(p.maxConcurrentWalks + kInitialQueue)
{
    // Slot 0 on top: the first walk takes it.
    for (std::uint32_t slot = p.maxConcurrentWalks; slot-- > 0;)
        freeSlots_.push_back(slot);
}

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
    // A duplicate may be in flight or waiting behind the concurrency
    // limit; either way it joins that walk, so no two walks ever hold
    // the same key.
    if (const std::uint64_t *ref = walkIndex_.find(key)) {
        ++stats_.merged;
        addCallback(*ref & kQueued ? queued(*ref & ~kQueued)
                                   : slots_[*ref].req,
                    std::move(cb));
        return;
    }

    WalkRequest w;
    w.vaddr = vaddr;
    w.ip = ip;
    w.asid = asid;
    w.cpu = cpu;
    addCallback(w, std::move(cb));

    if (freeSlots_.empty()) {
        ++stats_.queued;
        walkIndex_.insert(key, kQueued | enqueue(w));
        return;
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot].req = w;
    walkIndex_.insert(key, slot);
    startWalk(slot);
}

void
PageTableWalker::addCallback(WalkRequest &w, WalkCallback cb)
{
    std::uint32_t node = freeCallbacks_;
    if (node != kNone) {
        freeCallbacks_ = callbacks_[node].next;
        callbacks_[node].cb = std::move(cb);
    } else {
        node = static_cast<std::uint32_t>(callbacks_.size());
        callbacks_.push_back(CallbackNode{std::move(cb)});
    }
    callbacks_[node].next = kNone;
    if (w.lastCallback == kNone)
        w.firstCallback = node;
    else
        callbacks_[w.lastCallback].next = node;
    w.lastCallback = node;
}

std::uint64_t
PageTableWalker::enqueue(const WalkRequest &w)
{
    if (queueTail_ - queueHead_ == queue_.size()) {
        std::vector<WalkRequest> ring(queue_.size() * 2);
        for (std::uint64_t seq = queueHead_; seq != queueTail_; ++seq)
            ring[seq & (ring.size() - 1)] = queued(seq);
        queue_ = std::move(ring);
    }
    queued(queueTail_) = w;
    return queueTail_++;
}

void
PageTableWalker::appendHostWalk(WalkSlot &ws, Addr gpa,
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
PageTableWalker::startWalk(std::uint32_t slot)
{
    ++stats_.walks;
    WalkSlot &ws = slots_[slot];

    PageTable *pt = nullptr;
    for (const auto &[id, table] : spaces_) {
        if (id == ws.req.asid) {
            pt = table;
            break;
        }
    }
    TACSIM_CHECK(pt != nullptr && "walk for an ASID with no page table");
    ws.info = pt->walk(ws.req.vaddr);
    ws.startedAt = eq_.now();
    ws.reads.clear();
    ws.nextRead = 0;
    ws.leafSource = RespSource::None;

    Addr skipFrame = 0;
    ws.startLevel = pscs_.lookup(ws.req.asid, ws.req.vaddr, skipFrame);
    // A PSC hit can at best skip down to the mapping's leaf level; a 2M
    // walk never reads a level-1 table because none exists.
    ws.startLevel = std::max(ws.startLevel, ws.info.leafLevel);

    if (!hostTable_) {
        for (unsigned level = ws.startLevel;
             level >= ws.info.leafLevel; --level) {
            PendingRead r;
            r.paddr = ws.info.pteAddr[level - 1];
            r.ptLevel = static_cast<std::uint8_t>(level);
            r.leafPte = (level == ws.info.leafLevel);
            if (r.leafPte)
                r.replayBlockPaddr = blockAlign(ws.info.dataPaddr);
            ws.reads.push_back(r);
        }
        ws.finalPaddr = ws.info.dataPaddr;
        ws.fillSize = ws.info.pageSize;
        ws.fillBase = pageAlign(ws.finalPaddr, ws.fillSize);
    } else {
        // Nested 2D walk: the data address the replay load needs is only
        // known through the host dimension, so resolve it functionally
        // up front — the guest leaf read must carry replayBlockPaddr.
        // Walking it first also keeps first-touch host frames in the
        // order data, then page-table levels.
        const PageTable::WalkResult dataH =
            hostTable_->walk(ws.info.dataPaddr);
        ws.finalPaddr = dataH.dataPaddr;
        for (unsigned level = ws.startLevel;
             level >= ws.info.leafLevel; --level) {
            const Addr gpa = ws.info.pteAddr[level - 1];
            const PageTable::WalkResult h = hostTable_->walk(gpa);
            appendHostWalk(ws, gpa, h);
            PendingRead r;
            r.paddr = h.dataPaddr;
            r.ptLevel = static_cast<std::uint8_t>(level);
            r.leafPte = (level == ws.info.leafLevel);
            if (r.leafPte)
                r.replayBlockPaddr = blockAlign(ws.finalPaddr);
            ws.reads.push_back(r);
        }
        // One more host sub-walk translates the guest data address itself.
        appendHostWalk(ws, ws.info.dataPaddr, dataH);
        // The STLB can only cache the translation at the granule both
        // dimensions agree on: min(guest page, host page).
        ws.fillSize = minPageSize(ws.info.pageSize, dataH.pageSize);
        ws.fillBase = pageAlign(ws.finalPaddr, ws.fillSize);
    }
    TACSIM_DCHECK(!ws.reads.empty() && ws.reads.size() <= kMaxWalkReads);

    // PSC search costs one cycle, then the first read issues.
    eq_.schedule(pscs_.latency(), [this, slot] { issueNext(slot); });
}

void
PageTableWalker::issueNext(std::uint32_t slot)
{
    const WalkSlot &ws = slots_[slot];
    const PendingRead &r = ws.reads[ws.nextRead];
    TACSIM_DCHECK(r.ptLevel >= 1 && r.ptLevel <= kPtLevels);
    if (r.isHost)
        ++stats_.hostLevelReads[r.ptLevel - 1];
    else
        ++stats_.levelReads[r.ptLevel - 1];

    MemRequestPtr req = makeRequest();
    req->paddr = r.paddr;
    req->vaddr = ws.req.vaddr;
    req->ip = ws.req.ip;
    req->type = ReqType::Translation;
    req->ptLevel = r.ptLevel;
    req->leafPte = r.leafPte;
    req->cpu = ws.req.cpu;
    req->issuedAt = eq_.now();
    if (r.leafPte) {
        // IsLeafLevel + upper page-offset bits: tell the hierarchy which
        // data line the replay load will need, enabling ATP and TEMPO.
        req->replayBlockPaddr = r.replayBlockPaddr;
    }
    // Small enough for std::function's local buffer: no allocation.
    req->onComplete = [this, slot](MemRequest &resp) {
        readDone(slot, resp.source);
    };
    port_->access(req);
}

void
PageTableWalker::readDone(std::uint32_t slot, RespSource source)
{
    WalkSlot &ws = slots_[slot];
    if (ws.reads[ws.nextRead].leafPte)
        ws.leafSource = source;
    if (++ws.nextRead < ws.reads.size())
        issueNext(slot);
    else
        finishWalk(slot);
}

void
PageTableWalker::finishWalk(std::uint32_t slot)
{
    WalkSlot &ws = slots_[slot];
    switch (ws.leafSource) {
      case RespSource::L1D: ++stats_.leafFromL1D; break;
      case RespSource::L2C: ++stats_.leafFromL2C; break;
      case RespSource::LLC: ++stats_.leafFromLLC; break;
      case RespSource::DRAM: ++stats_.leafFromDram; break;
      default: ++stats_.leafFromIdeal; break;
    }
    stats_.walkLatency.add(eq_.now() - ws.startedAt);
    stats_.walkRefs.add(ws.reads.size());
    ++stats_.walksBySize[static_cast<unsigned>(ws.fillSize)];
    if (tracer_)
        tracer_->span(track_, walkNameId_, ws.startedAt, eq_.now());

    // Fill the PSCs for every level we walked: PSCL_l learns the frame of
    // the level-(l-1) table. fill() drops levels at or below the leaf.
    for (unsigned level = ws.startLevel; level >= 2; --level)
        pscs_.fill(ws.req.asid, ws.req.vaddr, level,
                   ws.info.tableFrame[level - 2], ws.info.leafLevel);

    if (stlb_)
        stlb_->fill(ws.req.asid, ws.req.vaddr, ws.fillBase, ws.fillSize);

    // Copy the outcome, detach the callbacks and free the slot before
    // the first callback runs: a callback may start a walk, which may
    // take this slot.
    const Addr paddr = ws.finalPaddr;
    const PageSize ps = ws.fillSize;
    const RespSource leafSource = ws.leafSource;
    std::uint32_t node = ws.req.firstCallback;
    ws.req.firstCallback = ws.req.lastCallback = kNone;
    walkIndex_.erase(keyOf(ws.req.asid, ws.req.vaddr));
    freeSlots_.push_back(slot);

    // Callbacks run in arrival order. Each node goes back to the pool
    // before its callback runs, which may add callbacks of its own.
    while (node != kNone) {
        CallbackNode &n = callbacks_[node];
        const std::uint32_t next = n.next;
        WalkCallback cb;
        cb.swap(n.cb);
        n.next = freeCallbacks_;
        freeCallbacks_ = node;
        cb(paddr, ps, leafSource);
        node = next;
    }

    drainQueue();
}

void
PageTableWalker::drainQueue()
{
    while (queueHead_ != queueTail_ && !freeSlots_.empty()) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        WalkSlot &ws = slots_[slot];
        ws.req = queued(queueHead_++);
        *walkIndex_.find(keyOf(ws.req.asid, ws.req.vaddr)) = slot;
        startWalk(slot);
    }
}

void
PageTableWalker::checkCallbacks(const WalkRequest &w,
                                std::vector<bool> &seen,
                                const std::string &ctx) const
{
    using verify::InvariantViolation;
    if (w.firstCallback == kNone)
        throw InvariantViolation(name_, "walk-callbacks",
                                 ctx + " has no callback");
    // One pass, stopping at the first node seen before: a cyclic list
    // (or one sharing a node with another) throws instead of looping.
    std::uint32_t tail = kNone;
    for (std::uint32_t node = w.firstCallback; node != kNone;
         node = callbacks_[node].next) {
        if (node >= callbacks_.size())
            throw InvariantViolation(
                name_, "walk-callbacks",
                ctx + " links callback " + std::to_string(node) +
                    " of " + std::to_string(callbacks_.size()));
        if (seen[node])
            throw InvariantViolation(
                name_, "walk-callback-cycle",
                ctx + " reaches callback " + std::to_string(node) +
                    " twice");
        seen[node] = true;
        tail = node;
    }
    if (w.lastCallback != tail)
        throw InvariantViolation(
            name_, "walk-callback-tail",
            ctx + " tail " + std::to_string(w.lastCallback) +
                " but list ends at " + std::to_string(tail));
}

void
PageTableWalker::checkInvariants() const
{
    using verify::InvariantViolation;
    const std::string &who = name_;
    const auto walkName = [](const WalkRequest &w) {
        std::ostringstream os;
        os << std::hex << "walk asid=" << w.asid << " vaddr=0x" << w.vaddr;
        return os.str();
    };

    // Walk file: every slot is either indexed exactly once or on the
    // free stack, and a free slot holds no callbacks.
    const std::size_t numSlots = slots_.size();
    std::vector<unsigned> claims(numSlots, 0);
    const auto claim = [&](std::uint64_t slot) {
        if (slot < numSlots && claims[slot]++ == 0)
            return;
        std::ostringstream os;
        os << "slot " << slot << " of " << numSlots
           << (slot < numSlots ? " is indexed or freed twice"
                               : " is out of range");
        throw InvariantViolation(who, "walk-slot", os.str());
    };
    for (const std::uint32_t slot : freeSlots_) {
        claim(slot);
        if (slots_[slot].req.firstCallback != kNone ||
            slots_[slot].req.lastCallback != kNone)
            throw InvariantViolation(
                who, "walk-slot",
                "free slot " + std::to_string(slot) + " holds callbacks");
    }
    std::vector<bool> seen(callbacks_.size(), false);
    walkIndex_.forEach([&](std::uint64_t key, std::uint64_t ref) {
        if (ref & kQueued) {
            // A queued walk: checked against the queue below.
            const std::uint64_t seq = ref & ~kQueued;
            if (seq < queueHead_ || seq >= queueTail_ ||
                keyOf(queued(seq).asid, queued(seq).vaddr) != key) {
                std::ostringstream os;
                os << "index entry " << std::hex << key << std::dec
                   << " names queued walk " << seq << " of ["
                   << queueHead_ << ", " << queueTail_ << ")";
                throw InvariantViolation(who, "walk-queue", os.str());
            }
            return;
        }
        claim(ref);
        const WalkSlot &ws = slots_[ref];
        std::ostringstream ctx;
        ctx << walkName(ws.req) << " slot=" << ref
            << " startLevel=" << ws.startLevel
            << " leafLevel=" << ws.info.leafLevel;
        if (key != keyOf(ws.req.asid, ws.req.vaddr))
            throw InvariantViolation(who, "inflight-key", ctx.str());
        checkCallbacks(ws.req, seen, ctx.str());
        if (ws.startLevel < 1 || ws.startLevel > kPtLevels)
            throw InvariantViolation(who, "level-range", ctx.str());
        if (ws.startLevel < ws.info.leafLevel)
            throw InvariantViolation(who, "start-below-leaf", ctx.str());
    });
    for (std::size_t slot = 0; slot < numSlots; ++slot) {
        if (claims[slot] == 0)
            throw InvariantViolation(
                who, "walk-slot",
                "slot " + std::to_string(slot) +
                    " is neither indexed nor free");
    }

    // Queue: every queued walk is indexed once, by its own sequence
    // number, and walks only queue while the walk file is full.
    for (std::uint64_t seq = queueHead_; seq != queueTail_; ++seq) {
        const WalkRequest &w = queued(seq);
        const std::uint64_t *ref = walkIndex_.find(keyOf(w.asid, w.vaddr));
        const std::string ctx =
            walkName(w) + " queued as " + std::to_string(seq);
        if (!ref || *ref != (kQueued | seq))
            throw InvariantViolation(who, "walk-queue",
                                     ctx + " is not indexed");
        checkCallbacks(w, seen, ctx);
    }
    if (queueHead_ != queueTail_ && !freeSlots_.empty()) {
        std::ostringstream os;
        os << queueTail_ - queueHead_ << " walks queued with only "
           << activeWalks() << "/" << numSlots << " active";
        throw InvariantViolation(who, "queue-backlog", os.str());
    }

    // Callback pool: every node is on one walk's list or free.
    for (std::uint32_t node = freeCallbacks_; node != kNone;
         node = callbacks_[node].next) {
        if (node >= callbacks_.size() || seen[node])
            throw InvariantViolation(
                who, "walk-callback-cycle",
                "free callback " + std::to_string(node) +
                    " is out of range or reached twice");
        seen[node] = true;
    }
    for (std::size_t node = 0; node < callbacks_.size(); ++node) {
        if (!seen[node])
            throw InvariantViolation(
                who, "walk-callback-leak",
                "callback " + std::to_string(node) +
                    " is on no walk and not free");
    }

    pscs_.checkInvariants();
    if (hostPscs_)
        hostPscs_->checkInvariants();
}

} // namespace tacsim
