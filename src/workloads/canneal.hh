/**
 * @file
 * PARSEC canneal stand-in. Canneal's kernel is simulated annealing of a
 * netlist: pick two random elements anywhere in a multi-gigabyte
 * structure, read a few fields of each, evaluate, and swap. Nearly every
 * element access lands on a fresh page, which is why canneal's replay
 * MPKI (17.5) dwarfs its non-replay MPKI (4.2) in the paper's Table II.
 */

#ifndef TACSIM_WORKLOADS_CANNEAL_HH
#define TACSIM_WORKLOADS_CANNEAL_HH

#include <string>

#include "common/rng.hh"
#include "workloads/generator.hh"

namespace tacsim {

struct CannealParams
{
    Addr footprintBytes = Addr{2300} << 20; ///< ~2.3GB like the paper
    std::uint64_t elemStride = 64;
    unsigned fillerPerSwap = 10;
    /** Probability that a picked element is cold (anywhere in the
     *  netlist) rather than from the hot active set. Canneal's hot set
     *  is small (L2-resident), so non-replay MPKI stays low while cold
     *  picks drive the replay MPKI (paper Table II). */
    double coldElementFraction = 0.19;
    Addr hotBytes = Addr{256} << 10; ///< active working set
    /** Cold picks come from a large sliding pool of the netlist, so the
     *  leaf-PTE working set (~pool/512) overflows the L2C but mostly
     *  fits the LLC — canneal has the paper's highest PTL1 MPKIs. */
    Addr coldPoolBytes = Addr{40} << 20;
    std::uint64_t seed = 11;
};

class CannealWorkload : public Generator
{
  public:
    explicit CannealWorkload(CannealParams p = {});

    std::string name() const override { return "canneal"; }
    Addr footprint() const override { return p_.footprintBytes; }

  private:
    void refill() override;

    CannealParams p_;
    Rng rng_;
    std::uint64_t poolBase_ = 0;
    Addr base_;
    std::uint64_t elems_;
};

} // namespace tacsim

#endif // TACSIM_WORKLOADS_CANNEAL_HH
