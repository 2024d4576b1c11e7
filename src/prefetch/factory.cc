#include "prefetch/factory.hh"

#include "prefetch/bingo.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/isb.hh"
#include "prefetch/spp.hh"

namespace tacsim {

std::string
prefetcherKindName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None: return "none";
      case PrefetcherKind::Spp: return "SPP";
      case PrefetcherKind::Bingo: return "Bingo";
      case PrefetcherKind::Ipcp: return "IPCP";
      case PrefetcherKind::Isb: return "ISB";
    }
    return "?";
}

std::unique_ptr<Prefetcher>
makePrefetcher(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None:
        return nullptr;
      case PrefetcherKind::Spp:
        return std::make_unique<SppPrefetcher>();
      case PrefetcherKind::Bingo:
        return std::make_unique<BingoPrefetcher>();
      case PrefetcherKind::Ipcp:
        return std::make_unique<IpcpPrefetcher>();
      case PrefetcherKind::Isb:
        return std::make_unique<IsbPrefetcher>();
    }
    return nullptr;
}

} // namespace tacsim
