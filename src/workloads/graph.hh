/**
 * @file
 * Synthetic Ligra-class graph workloads (pr, bf, cc, radii, mis, tc).
 *
 * The graph is procedural: degrees and adjacency come from hash
 * functions, so a multi-hundred-megabyte graph costs no host memory while
 * producing the same *address behaviour* as a stored CSR graph — a
 * sequential offset/edge stream plus per-edge random accesses into
 * vertex-indexed arrays, which is precisely the irregular pattern whose
 * translations miss the STLB (paper Table II).
 *
 * Layout of the simulated address space (per instance):
 *   [vertexA]   8B per vertex   (rank / dist / label)
 *   [vertexB]   8B per vertex   (next iteration values)
 *   [offsets]   8B per vertex   (CSR offsets, streamed)
 *   [edges]     8B per edge     (CSR edges, streamed)
 */

#ifndef TACSIM_WORKLOADS_GRAPH_HH
#define TACSIM_WORKLOADS_GRAPH_HH

#include <string>

#include "common/rng.hh"
#include "workloads/generator.hh"

namespace tacsim {

enum class GraphAlgo
{
    PR,    ///< PageRank: full edge sweeps, random dst reads
    BF,    ///< Bellman-Ford: frontier relaxations, random dist updates
    CC,    ///< connected components: label propagation
    RADII, ///< multi-source BFS with bitmasks
    MIS,   ///< maximal independent set: random neighbour peeks
    TC,    ///< triangle counting: adjacency-list intersections
};

struct GraphParams
{
    std::uint64_t vertices = 1u << 24; ///< 16M vertices
    std::uint64_t avgDegree = 8;
    /** Non-memory filler instructions per edge processed (controls the
     *  memory intensity, hence the STLB MPKI band). */
    unsigned fillerPerEdge = 2;

    /**
     * Power-law locality of the adjacency. A neighbour is drawn from the
     * hot hub set with probability hubFraction (hubs are reused so much
     * that their pages live in the STLB), from a community window around
     * the source vertex with probability localFraction, and uniformly
     * otherwise. These control how many gathers touch cold pages, i.e.
     * the benchmark's STLB-MPKI band.
     */
    double hubFraction = 0.3;
    std::uint64_t hubVertices = 1u << 14;
    double localFraction = 0.3;
    std::uint64_t localWindow = 1u << 16;

    /**
     * Frontier-based algorithms (bf, radii) pick active vertices from a
     * sliding window rather than uniformly — real BFS/SSSP frontiers are
     * community-clustered, which keeps the frontier's own pages warm.
     */
    std::uint64_t frontierWindow = 1u << 18;

    std::uint64_t seed = 42;
};

class GraphWorkload : public Generator
{
  public:
    GraphWorkload(GraphAlgo algo, GraphParams p = {});

    std::string name() const override;
    Addr footprint() const override;

    /** Procedural degree of vertex @p v (power-law-ish). */
    std::uint64_t degree(std::uint64_t v) const;
    /** Procedural @p i-th neighbour of vertex @p v. */
    std::uint64_t neighbor(std::uint64_t v, std::uint64_t i) const;

  private:
    // Address helpers.
    Addr vertexA(std::uint64_t v) const { return baseA_ + v * 8; }
    Addr vertexB(std::uint64_t v) const { return baseB_ + v * 8; }
    Addr offsetAddr(std::uint64_t v) const { return baseOff_ + v * 8; }
    Addr edgeAddr(std::uint64_t e) const { return baseEdge_ + e * 8; }

    void refill() override;
    void refillPr();
    void refillBf();
    void refillCc();
    void refillRadii();
    void refillMis();
    void refillTc();

    GraphAlgo algo_;
    GraphParams p_;
    Rng rng_;

    Addr baseA_, baseB_, baseOff_, baseEdge_;
    std::uint64_t curVertex_ = 0;
    std::uint64_t frontierBase_ = 0;
};

} // namespace tacsim

#endif // TACSIM_WORKLOADS_GRAPH_HH
