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

TraceRecord
XalancWorkload::next()
{
    while (queue_.empty())
        refill();
    TraceRecord t = queue_.front();
    queue_.pop_front();
    return t;
}

void
XalancWorkload::refill()
{
    auto load = [&](Addr pc, Addr va, bool dep = false) {
        TraceRecord t;
        t.ip = pc;
        t.kind = TraceRecord::Kind::Load;
        t.vaddr = va;
        t.dependsOnPrevLoad = dep;
        queue_.push_back(t);
    };
    auto nonmem = [&](Addr pc, unsigned n) {
        TraceRecord t;
        t.ip = pc;
        for (unsigned i = 0; i < n; ++i)
            queue_.push_back(t);
    };

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
    load(ip(0), node);
    for (unsigned i = 1; i < p_.chainLength; ++i) {
        node = hotBase_ + (hashCombine(node, i) % tierSpan() & ~Addr{63});
        load(ip(1), node, true);
        nonmem(ip(2), p_.fillerPerNode);
    }

    // String-table / output-buffer excursion into the cold heap (a
    // sliding pool of the full document).
    if (rng_.chance(p_.coldFraction)) {
        const Addr off =
            (poolBase_ + rng_.next() % p_.coldPoolBytes) % p_.coldBytes;
        const Addr cold = coldBase_ + (off & ~Addr{63});
        load(ip(3), cold);
        load(ip(4), cold + 16, true);
        nonmem(ip(5), 3);
        poolBase_ = (poolBase_ + 192) % p_.coldBytes;
    }

    // Result construction: sequential append to the output document.
    if (rng_.chance(0.3)) {
        TraceRecord st;
        st.ip = ip(6);
        st.kind = TraceRecord::Kind::Store;
        st.vaddr = coldBase_ + (Addr{1} << 34) + (out_ % (1u << 24)) * 16;
        ++out_;
        queue_.push_back(st);
    }
}

} // namespace tacsim
