#include "vm/tlb.hh"

#include <algorithm>
#include <sstream>

#include "obs/registry.hh"
#include "sim/verify.hh"

namespace tacsim {

Tlb::Tlb(std::string name, std::uint32_t entries, std::uint32_t ways,
         Cycle latency, bool profileRecall)
    : name_(std::move(name)),
      sets_(entries / ways),
      indexer_(sets_, 0),
      ways_(ways),
      latency_(latency),
      entries_(static_cast<std::size_t>(entries))
{
    TACSIM_CHECK(entries % ways == 0);
    if (profileRecall)
        profiler_ = std::make_unique<RecallProfiler>(sets_, 1);
}

bool
Tlb::lookup(std::uint16_t asid, Addr vaddr, Addr &pfnBase, PageSize &ps)
{
    ++stats_.accesses;
    if (profiler_) {
        profiler_->onAccess(setOf(pageNumber(vaddr)),
                            profileKeyOf(asid, vaddr), BlockCat::PtLeaf);
    }
    for (PageSize s : kAllPageSizes) {
        if (sizeCount_[static_cast<unsigned>(s)] == 0)
            continue;
        const Addr vpn = pageNumber(vaddr, s);
        const std::size_t base =
            static_cast<std::size_t>(setOf(vpn)) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (e.valid && e.size == s && e.asid == asid &&
                e.vpn == vpn) {
                e.lru = clock_++;
                pfnBase = e.pfn;
                ps = s;
                ++stats_.hits;
                ++stats_.hitsBySize[static_cast<unsigned>(s)];
                return true;
            }
        }
    }
    ++stats_.misses;
    return false;
}

bool
Tlb::lookup(std::uint16_t asid, Addr vaddr, Addr &paddr)
{
    Addr pfnBase = 0;
    PageSize ps = PageSize::Size4K;
    if (!lookup(asid, vaddr, pfnBase, ps))
        return false;
    paddr = pfnBase | pageOffset(vaddr, ps);
    return true;
}

bool
Tlb::probe(std::uint16_t asid, Addr vaddr, Addr &paddr) const
{
    for (PageSize s : kAllPageSizes) {
        if (sizeCount_[static_cast<unsigned>(s)] == 0)
            continue;
        const Addr vpn = pageNumber(vaddr, s);
        const std::size_t base =
            static_cast<std::size_t>(setOf(vpn)) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Entry &e = entries_[base + w];
            if (e.valid && e.size == s && e.asid == asid &&
                e.vpn == vpn) {
                paddr = e.pfn | pageOffset(vaddr, s);
                return true;
            }
        }
    }
    return false;
}

void
Tlb::fill(std::uint16_t asid, Addr vaddr, Addr pfnBase, PageSize ps)
{
    TACSIM_DCHECK(pageAlign(pfnBase, ps) == pfnBase);
    const Addr vpn = pageNumber(vaddr, ps);
    const std::uint32_t set = setOf(vpn);
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    ++stats_.fillsBySize[static_cast<unsigned>(ps)];
    Entry *victim = &entries_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.size == ps && e.asid == asid && e.vpn == vpn) {
            e.pfn = pfnBase; // refresh in place
            e.lru = clock_++;
            return;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    if (victim->valid) {
        --sizeCount_[static_cast<unsigned>(victim->size)];
        if (profiler_) {
            const Addr victimVa = victim->vpn << pageShift(victim->size);
            profiler_->onEvict(set, profileKeyOf(victim->asid, victimVa),
                               BlockCat::PtLeaf);
        }
    }
    victim->valid = true;
    victim->asid = asid;
    victim->vpn = vpn;
    victim->size = ps;
    victim->pfn = pfnBase;
    victim->lru = clock_++;
    ++sizeCount_[static_cast<unsigned>(ps)];
}

void
Tlb::flush()
{
    for (auto &e : entries_)
        e.valid = false;
    sizeCount_ = {};
}

void
Tlb::resetStats()
{
    stats_.reset();
    if (profiler_)
        profiler_->reset();
}

void
Tlb::registerMetrics(obs::Registry &registry, const std::string &prefix)
{
    registry.addCounter(prefix + ".accesses", &stats_.accesses);
    registry.addCounter(prefix + ".hits", &stats_.hits);
    registry.addCounter(prefix + ".misses", &stats_.misses);
    for (PageSize ps : kAllPageSizes) {
        const unsigned s = static_cast<unsigned>(ps);
        registry.addCounter(
            prefix + ".hits_" + pageSizeName(ps), &stats_.hitsBySize[s]);
        registry.addCounter(
            prefix + ".fills_" + pageSizeName(ps), &stats_.fillsBySize[s]);
    }
    // A TLB's profiler only ever records translation recalls (entries
    // are PTEs), so the replay/data histograms are not exported.
    if (profiler_)
        registry.addHistogram(prefix + ".recall.translation",
                              &profiler_->translationHist());
    registry.addResetHook([this] { resetStats(); });
}

void
Tlb::forEachEntry(
    const std::function<void(std::uint16_t, Addr, Addr, PageSize)> &fn)
    const
{
    for (const Entry &e : entries_) {
        if (e.valid)
            fn(e.asid, e.vpn, e.pfn, e.size);
    }
}

void
Tlb::pokeForTest(std::uint32_t set, std::uint32_t way, std::uint16_t asid,
                 Addr vpn, Addr pfn, PageSize ps)
{
    Entry &e = entries_[static_cast<std::size_t>(set) * ways_ + way];
    if (e.valid)
        --sizeCount_[static_cast<unsigned>(e.size)];
    e.valid = true;
    e.asid = asid;
    e.vpn = vpn;
    e.size = ps;
    e.pfn = pfn;
    e.lru = clock_++;
    ++sizeCount_[static_cast<unsigned>(ps)];
}

void
Tlb::checkInvariants() const
{
    using verify::InvariantViolation;
    struct Range
    {
        std::uint16_t asid;
        Addr begin, end;
        PageSize size;
        std::uint32_t set, way;
    };
    std::vector<Range> ranges;
    for (std::uint32_t set = 0; set < sets_; ++set) {
        const std::size_t base = static_cast<std::size_t>(set) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Entry &e = entries_[base + w];
            if (!e.valid)
                continue;
            std::ostringstream ctx;
            ctx << std::hex << "asid=" << e.asid << " vpn=0x" << e.vpn
                << " pfn=0x" << e.pfn << std::dec << " size="
                << pageSizeName(e.size) << " lru=" << e.lru;
            if (setOf(e.vpn) != set)
                throw InvariantViolation(name_, "set-mismatch", ctx.str(),
                                         set, w);
            if (e.pfn != pageAlign(e.pfn, e.size))
                throw InvariantViolation(name_, "pfn-align", ctx.str(),
                                         set, w);
            if (e.lru == 0 || e.lru >= clock_)
                throw InvariantViolation(name_, "lru-clock", ctx.str(),
                                         set, w);
            for (std::uint32_t w2 = w + 1; w2 < ways_; ++w2) {
                const Entry &other = entries_[base + w2];
                if (other.valid && other.size == e.size &&
                    other.asid == e.asid && other.vpn == e.vpn)
                    throw InvariantViolation(name_, "duplicate-key",
                                             ctx.str(), set, w2);
            }
            const Addr begin = e.vpn << pageShift(e.size);
            ranges.push_back(Range{e.asid, begin,
                                   begin + pageBytes(e.size), e.size, set,
                                   w});
        }
    }
    // Two live entries of different granules must never cover the same
    // virtual address: that is a mapping alias the walker can't produce.
    std::sort(ranges.begin(), ranges.end(),
              [](const Range &a, const Range &b) {
                  return a.asid != b.asid ? a.asid < b.asid
                                          : a.begin < b.begin;
              });
    for (std::size_t i = 1; i < ranges.size(); ++i) {
        const Range &prev = ranges[i - 1];
        const Range &cur = ranges[i];
        if (prev.asid == cur.asid && cur.begin < prev.end &&
            prev.size != cur.size) {
            std::ostringstream ctx;
            ctx << std::hex << "asid=" << cur.asid << " va=0x"
                << cur.begin << " covered at both "
                << pageSizeName(prev.size) << " and "
                << pageSizeName(cur.size);
            throw InvariantViolation(name_, "mixed-size-alias", ctx.str(),
                                     cur.set, cur.way);
        }
    }
}

} // namespace tacsim
