/**
 * @file
 * SPEC CPU2017 xalancbmk stand-in. XSLT transformation walks DOM trees:
 * a hot working set of a few megabytes is traversed heavily (reused at
 * L2C/LLC, resident in the STLB), while occasional excursions touch a
 * much larger cold heap. The result is the paper's "Low" STLB MPKI
 * (4.78) combined with a *high* non-replay miss rate at L2C (17.3) —
 * random hits inside a hot region that fits the STLB but not the caches.
 */

#ifndef TACSIM_WORKLOADS_XALANC_HH
#define TACSIM_WORKLOADS_XALANC_HH

#include <string>

#include "common/rng.hh"
#include "workloads/generator.hh"

namespace tacsim {

struct XalancParams
{
    /** Tiered DOM working sets: L1-hot, L2/LLC-warm, LLC-cool. */
    Addr tier0Bytes = Addr{48} << 10;
    Addr tier1Bytes = Addr{1} << 20;
    Addr tier2Bytes = (Addr{3} << 20) / 2; // 1.5MB
    double tier1Fraction = 0.30; ///< walks landing in tier1
    double tier2Fraction = 0.12; ///< walks landing in tier2

    Addr coldBytes = Addr{500} << 20; ///< full document heap
    double coldFraction = 0.16;       ///< excursions into the cold heap
    /** Cold excursions target a sliding pool (string tables and result
     *  fragments are revisited); its PTE set is tiny but still gets
     *  evicted by xalancbmk's heavy data traffic at baseline. */
    Addr coldPoolBytes = Addr{24} << 20;
    unsigned chainLength = 4;         ///< DOM pointer-walk depth
    unsigned fillerPerNode = 6;
    std::uint64_t seed = 17;
};

class XalancWorkload : public Generator
{
  public:
    explicit XalancWorkload(XalancParams p = {});

    std::string name() const override { return "xalancbmk"; }
    Addr footprint() const override { return p_.coldBytes; }

  private:
    void refill() override;

    XalancParams p_;
    Rng rng_;
    Addr hotBase_;
    Addr coldBase_;
    Addr poolBase_ = 0;
    std::uint64_t out_ = 0;
};

} // namespace tacsim

#endif // TACSIM_WORKLOADS_XALANC_HH
