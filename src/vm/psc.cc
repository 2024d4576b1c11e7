#include "vm/psc.hh"

#include <sstream>

#include "sim/verify.hh"

namespace tacsim {

namespace {

/** VA truncated to the region PSCL_l tags cover (levels >= l). */
Addr
coverageAlign(Addr vaddr, unsigned level)
{
    const unsigned shift = kPageBits + (level - 1) * kPtIndexBits;
    return vaddr & ~((Addr{1} << shift) - 1);
}

} // namespace

PagingStructureCaches::PagingStructureCaches(
    std::array<std::uint32_t, 4> sizes, Cycle latency, std::string owner)
    : latency_(latency), owner_(std::move(owner))
{
    for (unsigned i = 0; i < 4; ++i)
        caches_[i].resize(sizes[i]);
}

unsigned
PagingStructureCaches::lookup(std::uint16_t asid, Addr vaddr,
                              Addr &nextTableFrame)
{
    ++stats_.lookups;
    // Deepest level first: PSCL2 hit means only the leaf remains.
    for (unsigned level = 2; level <= kPtLevels; ++level) {
        auto &cache = caches_[level - 2];
        const std::uint64_t tag = tagOf(asid, vaddr, level);
        for (auto &e : cache) {
            if (e.valid && e.tag == tag) {
                e.lru = clock_++;
                nextTableFrame = e.frame;
                ++stats_.hitsAtLevel[level - 1];
                return level - 1;
            }
        }
    }
    ++stats_.fullMisses;
    nextTableFrame = 0;
    return kPtLevels;
}

void
PagingStructureCaches::fill(std::uint16_t asid, Addr vaddr, unsigned level,
                            Addr childTableFrame, unsigned leafLevel)
{
    if (level < 2 || level > kPtLevels)
        return;
    // No level-(l-1) table exists at or below the leaf: a 2M walk
    // (leaf at 2) must never populate PSCL2.
    if (level <= leafLevel)
        return;
    auto &cache = caches_[level - 2];
    const std::uint64_t tag = tagOf(asid, vaddr, level);
    Entry *victim = &cache[0];
    for (auto &e : cache) {
        if (e.valid && e.tag == tag) {
            e.frame = childTableFrame;
            e.leafLevel = static_cast<std::uint8_t>(leafLevel);
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
    victim->valid = true;
    victim->tag = tag;
    victim->frame = childTableFrame;
    victim->va = coverageAlign(vaddr, level);
    victim->asid = asid;
    victim->leafLevel = static_cast<std::uint8_t>(leafLevel);
    victim->lru = clock_++;
}

void
PagingStructureCaches::flush()
{
    for (auto &c : caches_)
        for (auto &e : c)
            e.valid = false;
}

void
PagingStructureCaches::forEachEntry(
    const std::function<void(unsigned, std::uint16_t, Addr, Addr, unsigned)>
        &fn) const
{
    for (unsigned level = 2; level <= kPtLevels; ++level) {
        for (const Entry &e : caches_[level - 2]) {
            if (e.valid)
                fn(level, e.asid, e.va, e.frame, e.leafLevel);
        }
    }
}

void
PagingStructureCaches::pokeForTest(unsigned level, std::uint32_t index,
                                   std::uint16_t asid, Addr vaddr,
                                   Addr frame, unsigned leafLevel)
{
    Entry &e = caches_[level - 2][index];
    e.valid = true;
    e.tag = tagOf(asid, vaddr, level);
    e.frame = frame;
    e.va = coverageAlign(vaddr, level);
    e.asid = asid;
    e.leafLevel = static_cast<std::uint8_t>(leafLevel);
    e.lru = clock_++;
}

void
PagingStructureCaches::checkInvariants() const
{
    using verify::InvariantViolation;
    for (unsigned level = 2; level <= kPtLevels; ++level) {
        const auto &cache = caches_[level - 2];
        const std::string who = owner_ + "PSCL" + std::to_string(level);
        for (std::size_t i = 0; i < cache.size(); ++i) {
            const Entry &e = cache[i];
            if (!e.valid)
                continue;
            std::ostringstream ctx;
            ctx << std::hex << "tag=0x" << e.tag << " frame=0x" << e.frame
                << " va=0x" << e.va << std::dec
                << " leaf=" << unsigned(e.leafLevel) << " lru=" << e.lru;
            if (e.frame != pageAlign(e.frame))
                throw InvariantViolation(who, "frame-align", ctx.str(),
                                         static_cast<std::int64_t>(i));
            if (e.lru == 0 || e.lru >= clock_)
                throw InvariantViolation(who, "lru-clock", ctx.str(),
                                         static_cast<std::int64_t>(i));
            if (e.tag != tagOf(e.asid, e.va, level))
                throw InvariantViolation(who, "tag-mismatch", ctx.str(),
                                         static_cast<std::int64_t>(i));
            // An entry at PSCL_l points at a level-(l-1) table; a walk
            // whose leaf was at or above l has no such table.
            if (e.leafLevel >= level)
                throw InvariantViolation(who, "psc-skipped-level",
                                         ctx.str(),
                                         static_cast<std::int64_t>(i));
            for (std::size_t j = i + 1; j < cache.size(); ++j) {
                if (cache[j].valid && cache[j].tag == e.tag)
                    throw InvariantViolation(
                        who, "duplicate-tag", ctx.str(),
                        static_cast<std::int64_t>(j));
            }
        }
    }
}

} // namespace tacsim
