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

void
CannealWorkload::refill()
{
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

    emitLoad(ip(0), a);
    emitLoad(ip(1), a + 8, true);  // fanin pointer of a
    emitLoad(ip(2), b);
    emitLoad(ip(3), b + 8, true);  // fanin pointer of b
    emitNonMem(ip(4), p_.fillerPerSwap);
    if (rng_.chance(0.5)) {
        emitStore(ip(5), a);
        emitStore(ip(6), b);
    }
}

} // namespace tacsim
