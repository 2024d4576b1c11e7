/**
 * @file
 * Prefetcher selection and construction.
 */

#ifndef TACSIM_PREFETCH_FACTORY_HH
#define TACSIM_PREFETCH_FACTORY_HH

#include <memory>
#include <string>

#include "prefetch/prefetcher.hh"

namespace tacsim {

enum class PrefetcherKind
{
    None,
    Spp,
    Bingo,
    Ipcp,
    Isb,
};

/** Human-readable name ("SPP", ...). */
std::string prefetcherKindName(PrefetcherKind kind);

/** Build a prefetcher; returns nullptr for None. */
std::unique_ptr<Prefetcher> makePrefetcher(PrefetcherKind kind);

} // namespace tacsim

#endif // TACSIM_PREFETCH_FACTORY_HH
