#include "workloads/xalanc.hh"


namespace tacsim {

namespace {
constexpr Addr kIpBase = 0x700000;

constexpr Addr
ip(unsigned site)
{
    return kIpBase + site * 4;
}
} // namespace

XalancWorkload::XalancWorkload(XalancParams p)
    : p_(p), rng_(p.seed),
      hotBase_(Addr{1} << 43),
      coldBase_(hotBase_ + (Addr{1} << 35))
{}

void
XalancWorkload::refill()
{
    // DOM node visit: a short dependent pointer walk through the tiered
    // working sets (hot nodes near the tree root, cooler subtrees).
    auto tierSpan = [&]() -> Addr {
        const double u = rng_.uniform();
        if (u < p_.tier2Fraction)
            return p_.tier2Bytes;
        if (u < p_.tier2Fraction + p_.tier1Fraction)
            return p_.tier1Bytes;
        return p_.tier0Bytes;
    };
    // Draw the tier before the offset: both operands of % pull from
    // rng_, and unsequenced draws made the trace depend on the
    // compiler's evaluation order (caught by the golden suite — the
    // ASan build ordered them differently).
    const Addr span = tierSpan();
    Addr node = hotBase_ + (rng_.next() % span & ~Addr{63});
    emitLoad(ip(0), node);
    for (unsigned i = 1; i < p_.chainLength; ++i) {
        node = hotBase_ + (hashCombine(node, i) % tierSpan() & ~Addr{63});
        emitLoad(ip(1), node, true);
        emitNonMem(ip(2), p_.fillerPerNode);
    }

    // String-table / output-buffer excursion into the cold heap (a
    // sliding pool of the full document).
    if (rng_.chance(p_.coldFraction)) {
        const Addr off =
            (poolBase_ + rng_.next() % p_.coldPoolBytes) % p_.coldBytes;
        const Addr cold = coldBase_ + (off & ~Addr{63});
        emitLoad(ip(3), cold);
        emitLoad(ip(4), cold + 16, true);
        emitNonMem(ip(5), 3);
        poolBase_ = (poolBase_ + 192) % p_.coldBytes;
    }

    // Result construction: sequential append to the output document.
    if (rng_.chance(0.3)) {
        emitStore(ip(6),
                  coldBase_ + (Addr{1} << 34) + (out_ % (1u << 24)) * 16);
        ++out_;
    }
}

} // namespace tacsim
