#include "workloads/canneal.hh"


namespace tacsim {

namespace {
constexpr Addr kIpBase = 0x600000;

constexpr Addr
ip(unsigned site)
{
    return kIpBase + site * 4;
}
} // namespace

CannealWorkload::CannealWorkload(CannealParams p)
    : p_(p), rng_(p.seed),
      base_(Addr{1} << 42),
      elems_(p.footprintBytes / p.elemStride)
{}

TraceRecord
CannealWorkload::next()
{
    while (queue_.empty())
        refill();
    TraceRecord t = queue_.front();
    queue_.pop_front();
    return t;
}

void
CannealWorkload::refill()
{
    auto load = [&](Addr pc, Addr va, bool dep = false) {
        TraceRecord t;
        t.ip = pc;
        t.kind = TraceRecord::Kind::Load;
        t.vaddr = va;
        t.dependsOnPrevLoad = dep;
        queue_.push_back(t);
    };
    auto store = [&](Addr pc, Addr va) {
        TraceRecord t;
        t.ip = pc;
        t.kind = TraceRecord::Kind::Store;
        t.vaddr = va;
        queue_.push_back(t);
    };
    auto nonmem = [&](Addr pc, unsigned n) {
        TraceRecord t;
        t.ip = pc;
        for (unsigned i = 0; i < n; ++i)
            queue_.push_back(t);
    };

    // One annealing move: two elements (mostly from the hot active set,
    // sometimes cold), a few fields each, and a conditional swap.
    const std::uint64_t hotElems = p_.hotBytes / p_.elemStride;
    const std::uint64_t poolElems = p_.coldPoolBytes / p_.elemStride;
    auto pick = [&]() -> Addr {
        if (rng_.chance(p_.coldElementFraction)) {
            const std::uint64_t e =
                (poolBase_ + rng_.range(poolElems)) % elems_;
            return base_ + e * p_.elemStride;
        }
        return base_ + rng_.range(hotElems) * p_.elemStride;
    };
    const Addr a = pick();
    const Addr b = pick();
    poolBase_ = (poolBase_ + 1) % elems_; // pool slides slowly

    load(ip(0), a);
    load(ip(1), a + 8, true);  // fanin pointer of a
    load(ip(2), b);
    load(ip(3), b + 8, true);  // fanin pointer of b
    nonmem(ip(4), p_.fillerPerSwap);
    if (rng_.chance(0.5)) {
        store(ip(5), a);
        store(ip(6), b);
    }
}

} // namespace tacsim
