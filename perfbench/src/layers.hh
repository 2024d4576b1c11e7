/**
 * @file
 * Isolated drives of each simulator layer's public entry points, fed the
 * workload's own Workload::next() streams. Each drive reports host
 * nanoseconds per operation; multiplied by the layer's deterministic
 * operation count per kilo-instruction it estimates that layer's share
 * of the host time.
 *
 *   common    EventQueue::schedule + advanceTo      ns per event
 *   core      Core::tick against a fixed-latency L1D stub   ns per tick,
 *                                                         per instruction
 *   vm        Tlb::lookup (DTLB then STLB, fill on miss)    ns per lookup
 *             PageTableWalker::walk with a stub port        ns per walk
 *   cache     Cache::access, event queue drained            ns per hit/miss
 *   repl      ReplPolicy victim + onEvict + onFill          ns per fill
 *   mem       Dram::access; makeRequest                     ns per op
 *   workloads Workload::next                                ns per record
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <memory>
#include <string>

#include "points.hh"

namespace perfbench {

class SpanTrace;
struct LayerInputs;

/** Host ns per operation of every isolated drive. */
struct LayerCosts
{
    double eqNsPerEvent = 0;
    double coreTickNs = 0;
    double coreNsPerInstr = 0; ///< the same drive, per retired instruction
    double tlbLookupNs = 0;
    double walkNs = 0;
    double cacheHitNs = 0;
    double cacheMissNs = 0;
    double dramAccessNs = 0;
    double requestAllocNs = 0;
    double nextNs = 0;
    /** ns per fill, keyed by policy metric slug ("tdrrip", "ship"). */
    std::map<std::string, double> victimNs;
};

/** The inputs every drive reads (record streams, translations, policy
 *  set), prepared once per workload outside any timed region. */
class LayerDrives
{
  public:
    explicit LayerDrives(const WorkloadDef &w);
    ~LayerDrives();

    /** One pass of every drive; spans go to @p spans when non-null. */
    LayerCosts measure(SpanTrace *spans = nullptr);

  private:
    std::unique_ptr<LayerInputs> in_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
