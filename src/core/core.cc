#include "core/core.hh"

#include <algorithm>
#include <bit>

#include "obs/chrome_trace.hh"
#include "obs/registry.hh"

namespace tacsim {

Core::Core(CoreParams params, EventQueue &eq, Workload &workload,
           Tlb &dtlb, Tlb &stlb, PageTableWalker &ptw, MemDevice &l1d)
    : params_(params),
      eq_(eq),
      workload_(workload),
      dtlb_(dtlb),
      stlb_(stlb),
      ptw_(ptw),
      l1d_(l1d),
      rob_(std::bit_ceil(params_.robSize)),
      robMask_(rob_.size() - 1)
{}

StallKind
Core::classifyHead() const
{
    const RobEntry &h = head();
    if (h.complete)
        return StallKind::None;
    if (h.kind != TraceRecord::Kind::NonMem && h.stlbMiss) {
        if (h.wait == StallKind::Translation)
            return StallKind::Translation;
        if (h.wait == StallKind::Replay)
            return StallKind::Replay;
    }
    return StallKind::Other;
}

void
Core::chargeHeadStall(Cycle n)
{
    RobEntry &h = head();
    switch (classifyHead()) {
      case StallKind::Translation:
        h.tStall += n;
        stats_.stallCyclesT += n;
        break;
      case StallKind::Replay:
        h.rStall += n;
        stats_.stallCyclesR += n;
        break;
      case StallKind::Other:
        h.nStall += n;
        stats_.stallCyclesN += n;
        break;
      case StallKind::None:
        break;
    }
}

bool
Core::blocked() const
{
    return robFull() && !head().complete;
}

void
Core::chargeSkippedCycles(Cycle n)
{
    if (count_ && !head().complete)
        chargeHeadStall(n);
}

void
Core::retireHead()
{
    RobEntry &h = head();
    TACSIM_DCHECK(h.complete);
    ++stats_.retired;
    if (h.kind == TraceRecord::Kind::Load)
        ++stats_.loads;
    else if (h.kind == TraceRecord::Kind::Store)
        ++stats_.stores;

    if (h.kind != TraceRecord::Kind::NonMem) {
        if (h.stlbMiss) {
            stats_.stallPerWalk.add(h.tStall);
            stats_.stallPerReplay.add(h.rStall);
        } else {
            stats_.stallPerNonReplay.add(h.nStall);
        }
    }
    ++headSeq_;
    --count_;
}

void
Core::tick()
{
    // 1. Retire in order, bounded by retire width.
    unsigned retiredNow = 0;
    while (count_ && retiredNow < params_.retireWidth && head().complete) {
        retireHead();
        ++retiredNow;
    }
    if (count_ && !head().complete)
        chargeHeadStall(1);

    // 2. Dispatch new instructions.
    for (unsigned d = 0; d < params_.issueWidth && !robFull(); ++d)
        dispatchOne();
}

void
Core::dispatchOne()
{
    const std::uint64_t seq = nextSeq_++;
    RobEntry &e = entryFor(seq);
    TraceRecord t = workload_.next();

    e.ip = t.ip;
    e.vaddr = t.vaddr;
    e.kind = t.kind;
    e.complete = false;
    e.issued = false;
    e.stlbMiss = false;
    e.wait = StallKind::None;
    e.producerSeq = -1;
    e.firstWaiter = e.lastWaiter = e.nextWaiter = kNoSeq;
    e.tStall = e.rStall = e.nStall = 0;
    ++count_;

    if (t.kind == TraceRecord::Kind::NonMem) {
        // Retire width bounds non-memory IPC; no need to model latency.
        e.complete = true;
        return;
    }

    if (t.dependsOnPrevLoad && lastLoadSeq_ >= 0 &&
        static_cast<std::uint64_t>(lastLoadSeq_) >= headSeq_ &&
        !entryFor(static_cast<std::uint64_t>(lastLoadSeq_)).complete) {
        e.producerSeq = lastLoadSeq_;
    }

    if (t.kind == TraceRecord::Kind::Load)
        lastLoadSeq_ = static_cast<std::int64_t>(seq);

    tryIssue(seq);
}

void
Core::tryIssue(std::uint64_t seq)
{
    RobEntry &e = entryFor(seq);
    if (e.issued)
        return;
    if (e.producerSeq >= 0) {
        RobEntry &p = entryFor(static_cast<std::uint64_t>(e.producerSeq));
        if (!p.complete) {
            // Join the producer's wake list at the tail: entries
            // dispatch in sequence order, so the list stays oldest
            // first and wakeup issues them in dispatch order.
            if (p.lastWaiter == kNoSeq)
                p.firstWaiter = seq;
            else
                entryFor(p.lastWaiter).nextWaiter = seq;
            p.lastWaiter = seq;
            return;
        }
    }
    issueMemOp(seq);
}

void
Core::issueMemOp(std::uint64_t seq)
{
    RobEntry &e = entryFor(seq);
    e.issued = true;

    // TLB entries carry their own granule: the hit side returns the
    // mapping's page size so the offset mask is never assumed 4K.
    Addr pfnBase = 0;
    PageSize ps = PageSize::Size4K;

    if (dtlb_.lookup(params_.asid, e.vaddr, pfnBase, ps)) {
        const Addr paddr = pfnBase | pageOffset(e.vaddr, ps);
        eq_.schedule(dtlb_.latency(), [this, seq, paddr, ps] {
            startDataAccess(seq, paddr, false, ps);
        });
        return;
    }

    if (stlb_.lookup(params_.asid, e.vaddr, pfnBase, ps)) {
        dtlb_.fill(params_.asid, e.vaddr, pfnBase, ps);
        const Addr paddr = pfnBase | pageOffset(e.vaddr, ps);
        eq_.schedule(dtlb_.latency() + stlb_.latency(),
                     [this, seq, paddr, ps] {
                         startDataAccess(seq, paddr, false, ps);
                     });
        return;
    }

    // STLB miss: page-table walk. The eventual data access is a replay.
    e.stlbMiss = true;
    e.wait = StallKind::Translation;
    ++stats_.stlbMissAccesses;
    // The entry stays in the ROB until its replay completes, so the
    // walk and its callback read vaddr and ip from it; capturing only
    // [this, seq] keeps the callback in std::function's local buffer.
    eq_.schedule(dtlb_.latency() + stlb_.latency(), [this, seq] {
        const RobEntry &w = entryFor(seq);
        ptw_.walk(params_.asid, w.vaddr, w.ip, params_.cpuId,
                  [this, seq](Addr dataPaddr, PageSize ps, RespSource) {
                      dtlb_.fill(params_.asid, entryFor(seq).vaddr,
                                 pageAlign(dataPaddr, ps), ps);
                      // The replay re-issues only after the STLB and
                      // DTLB fills complete — the window ATP exploits.
                      eq_.schedule(
                          stlb_.latency() + dtlb_.latency(),
                          [this, seq, dataPaddr, ps] {
                              startDataAccess(seq, dataPaddr, true, ps);
                          });
                  });
    });
}

void
Core::startDataAccess(std::uint64_t seq, Addr paddr, bool replay,
                      PageSize ps)
{
    RobEntry &e = entryFor(seq);
    e.wait = replay ? StallKind::Replay : StallKind::Other;

    MemRequestPtr req = makeRequest();
    req->paddr = paddr;
    req->vaddr = e.vaddr;
    req->ip = e.ip;
    req->isReplay = replay;
    req->pageSize = ps;
    req->cpu = params_.cpuId;
    req->issuedAt = eq_.now();

    if (e.kind == TraceRecord::Kind::Store) {
        // Stores retire once translated; the write proceeds in the
        // background and nobody waits on it.
        req->type = ReqType::Store;
        l1d_.access(req);
        completeEntry(seq);
        return;
    }

    req->type = ReqType::Load;
    if (tracer_ && replay) {
        const Cycle t0 = eq_.now();
        req->onComplete = [this, seq, t0](MemRequest &) {
            tracer_->span(track_, replayLoadId_, t0, eq_.now());
            completeEntry(seq);
        };
    } else {
        req->onComplete = [this, seq](MemRequest &) {
            completeEntry(seq);
        };
    }
    l1d_.access(req);
}

void
Core::registerMetrics(obs::Registry &registry, const std::string &prefix)
{
    registry.addCounter(prefix + ".retired", &stats_.retired);
    registry.addCounter(prefix + ".loads", &stats_.loads);
    registry.addCounter(prefix + ".stores", &stats_.stores);
    registry.addCounter(prefix + ".stlb_miss_accesses",
                        &stats_.stlbMissAccesses);
    registry.addCounter(prefix + ".stall_cycles.translation",
                        &stats_.stallCyclesT);
    registry.addCounter(prefix + ".stall_cycles.replay",
                        &stats_.stallCyclesR);
    registry.addCounter(prefix + ".stall_cycles.other",
                        &stats_.stallCyclesN);
    registry.addHistogram(prefix + ".stall_per_walk",
                          &stats_.stallPerWalk);
    registry.addHistogram(prefix + ".stall_per_replay",
                          &stats_.stallPerReplay);
    registry.addHistogram(prefix + ".stall_per_nonreplay",
                          &stats_.stallPerNonReplay);
    registry.addResetHook([this] { resetStats(); });
}

void
Core::setTracer(obs::ChromeTracer *tracer, std::uint32_t track)
{
    tracer_ = tracer;
    track_ = track;
    if (tracer_)
        replayLoadId_ = tracer_->intern("replay_load");
}

void
Core::completeEntry(std::uint64_t seq)
{
    RobEntry &e = entryFor(seq);
    e.complete = true;
    e.wait = StallKind::None;
    wakeDependents(seq);
}

void
Core::wakeDependents(std::uint64_t producerSeq)
{
    RobEntry &p = entryFor(producerSeq);
    std::uint64_t s = p.firstWaiter;
    p.firstWaiter = p.lastWaiter = kNoSeq;
    while (s != kNoSeq) {
        const std::uint64_t next = entryFor(s).nextWaiter;
        issueMemOp(s);
        s = next;
    }
}

} // namespace tacsim
