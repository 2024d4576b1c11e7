#include "workloads/graph.hh"


namespace tacsim {

namespace {

/** Stable fake code addresses; one per operation site so replacement
 *  and prefetcher signatures see realistic IP diversity. */
constexpr Addr kIpBase = 0x400000;

constexpr Addr
ip(unsigned site)
{
    return kIpBase + site * 4;
}

} // namespace

GraphWorkload::GraphWorkload(GraphAlgo algo, GraphParams p)
    : algo_(algo), p_(p), rng_(p.seed)
{
    const Addr va = Addr{1} << 40;
    baseA_ = va;
    baseB_ = baseA_ + p_.vertices * 8;
    baseOff_ = baseB_ + p_.vertices * 8;
    baseEdge_ = baseOff_ + p_.vertices * 8;
}

Addr
GraphWorkload::footprint() const
{
    return p_.vertices * 8 * 3 + p_.vertices * p_.avgDegree * 8;
}

std::uint64_t
GraphWorkload::degree(std::uint64_t v) const
{
    const std::uint64_t h = hashMix(v ^ (p_.seed * 0x9e37u));
    std::uint64_t d = 1 + h % (2 * p_.avgDegree - 1);
    if (h % 61 == 0)
        d *= 6; // heavy tail
    return d;
}

std::uint64_t
GraphWorkload::neighbor(std::uint64_t v, std::uint64_t i) const
{
    const std::uint64_t h = hashCombine(v * 0x1000193 + i, p_.seed);
    const double u = double(h >> 11) * 0x1.0p-53;
    if (u < p_.hubFraction)
        return hashMix(h) % p_.hubVertices; // hot hub
    if (u < p_.hubFraction + p_.localFraction) {
        // Community-local neighbour.
        const std::uint64_t off = hashMix(h ^ 0xabcd) % p_.localWindow;
        return (v + off) % p_.vertices;
    }
    return hashMix(h ^ 0x1234) % p_.vertices; // cold uniform
}

std::string
GraphWorkload::name() const
{
    switch (algo_) {
      case GraphAlgo::PR: return "pr";
      case GraphAlgo::BF: return "bf";
      case GraphAlgo::CC: return "cc";
      case GraphAlgo::RADII: return "radii";
      case GraphAlgo::MIS: return "mis";
      case GraphAlgo::TC: return "tc";
    }
    return "graph";
}

void
GraphWorkload::refill()
{
    switch (algo_) {
      case GraphAlgo::PR: refillPr(); break;
      case GraphAlgo::BF: refillBf(); break;
      case GraphAlgo::CC: refillCc(); break;
      case GraphAlgo::RADII: refillRadii(); break;
      case GraphAlgo::MIS: refillMis(); break;
      case GraphAlgo::TC: refillTc(); break;
    }
}

void
GraphWorkload::refillPr()
{
    // PageRank pull: stream offsets/edges of v, gather rank[nbr].
    const std::uint64_t v = curVertex_;
    curVertex_ = (curVertex_ + 1) % p_.vertices;

    emitLoad(ip(0), offsetAddr(v));
    const std::uint64_t d = degree(v);
    for (std::uint64_t i = 0; i < d; ++i) {
        emitLoad(ip(1), edgeAddr(v * p_.avgDegree + i));
        emitLoad(ip(2), vertexA(neighbor(v, i)), true); // gather
        emitNonMem(ip(3), p_.fillerPerEdge);
    }
    emitStore(ip(4), vertexB(v));
    emitNonMem(ip(5), 2);
}

void
GraphWorkload::refillBf()
{
    // Bellman-Ford sparse iteration: a frontier vertex (from the sliding
    // frontier window), relax its out-edges with dependent distance
    // reads and conditional writes.
    const std::uint64_t v =
        (frontierBase_ + rng_.range(p_.frontierWindow)) % p_.vertices;
    frontierBase_ = (frontierBase_ + 3) % p_.vertices;
    emitLoad(ip(8), vertexA(v)); // dist[v]
    const std::uint64_t d = degree(v);
    for (std::uint64_t i = 0; i < d; ++i) {
        emitLoad(ip(9), edgeAddr(v * p_.avgDegree + i));
        const std::uint64_t n = neighbor(v, i);
        emitLoad(ip(10), vertexA(n), true); // dist[nbr]
        emitNonMem(ip(11), p_.fillerPerEdge);
        if (rng_.chance(0.15))
            emitStore(ip(12), vertexA(n)); // relax
    }
}

void
GraphWorkload::refillCc()
{
    // Label propagation over a sequential vertex sweep; labels of
    // neighbours are gathered and the minimum written back.
    const std::uint64_t v = curVertex_;
    curVertex_ = (curVertex_ + 1) % p_.vertices;

    emitLoad(ip(16), vertexA(v));
    const std::uint64_t d = degree(v);
    for (std::uint64_t i = 0; i < d; ++i) {
        emitLoad(ip(17), edgeAddr(v * p_.avgDegree + i));
        emitLoad(ip(18), vertexA(neighbor(v, i)), true);
        emitNonMem(ip(19), p_.fillerPerEdge);
    }
    if (rng_.chance(0.5))
        emitStore(ip(20), vertexA(v));
}

void
GraphWorkload::refillRadii()
{
    // Multi-source BFS: frontier vertices from the sliding window,
    // bitmask loads and or-updates on the visited masks of neighbours.
    const std::uint64_t v =
        (frontierBase_ + rng_.range(p_.frontierWindow)) % p_.vertices;
    frontierBase_ = (frontierBase_ + 5) % p_.vertices;
    emitLoad(ip(24), vertexA(v));    // radii/visited mask of v
    emitLoad(ip(25), vertexB(v));    // nextVisited mask of v
    const std::uint64_t d = degree(v);
    for (std::uint64_t i = 0; i < d; ++i) {
        emitLoad(ip(26), edgeAddr(v * p_.avgDegree + i));
        const std::uint64_t n = neighbor(v, i);
        emitLoad(ip(27), vertexA(n), true);
        emitNonMem(ip(28), p_.fillerPerEdge);
        if (rng_.chance(0.3))
            emitStore(ip(29), vertexB(n));
    }
}

void
GraphWorkload::refillMis()
{
    // Maximal independent set rounds: dense streaming over the flag and
    // priority arrays (the paper's very high non-replay L2 MPKI for mis)
    // punctuated by occasional random neighbour peeks.
    for (unsigned k = 0; k < 4; ++k) {
        const std::uint64_t v = curVertex_;
        curVertex_ = (curVertex_ + 1) % p_.vertices;
        emitLoad(ip(32), vertexA(v));       // flags stream
        emitLoad(ip(33), vertexB(v));       // priority stream
        emitNonMem(ip(34), p_.fillerPerEdge);
        if (rng_.chance(0.13)) {
            emitLoad(ip(35), vertexA(neighbor(v, 0))); // random peek
            emitNonMem(ip(36), 2);
        }
        if (rng_.chance(0.05))
            emitStore(ip(37), vertexA(v));
    }
}

void
GraphWorkload::refillTc()
{
    // Triangle counting: intersect adj(u) with adj(n) for each
    // neighbour n; both lists stream, but n's list starts at a random
    // base, giving medium STLB pressure with heavy L2C streaming.
    const std::uint64_t u = curVertex_;
    curVertex_ = (curVertex_ + 1) % p_.vertices;

    const std::uint64_t du = degree(u);
    for (std::uint64_t i = 0; i < du; ++i) {
        emitLoad(ip(40), edgeAddr(u * p_.avgDegree + i));
        const std::uint64_t n = neighbor(u, i);
        // Merge-intersect: both lists stream; n's list starts at a
        // random-ish base (one cold page) then stays sequential.
        const std::uint64_t steps = 8 + degree(n);
        for (std::uint64_t j = 0; j < steps; ++j) {
            emitLoad(ip(41), edgeAddr(n * p_.avgDegree + j));
            emitLoad(ip(43), edgeAddr(u * p_.avgDegree + (j % (du + 1))));
            emitNonMem(ip(42), p_.fillerPerEdge + 1); // compare/advance
        }
    }
}

} // namespace tacsim
