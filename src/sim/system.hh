/**
 * @file
 * Full-system composition: cores (optionally SMT), per-core TLBs and
 * page-table walkers, private L1D/L2, shared LLC, DRAM, and the run loop
 * with cycle skipping.
 *
 * Threads are numbered 0..threads()-1; thread t runs on core
 * t / threadsPerCore and owns address space (ASID) t. SMT threads share
 * their core's DTLB, STLB, walker and L1D; all cores share the LLC and
 * DRAM. This mirrors the paper's single-core, 2-way SMT and 8-core
 * evaluations (§V).
 *
 * The machine shape is SystemConfig's composition fields
 * (sim/topology.hh), which the caller assigns: core/SMT counts, LLC
 * associativity (one shared Cache of llcBytesOf) and DRAM channels
 * (dramChannelsOf).
 */

#ifndef TACSIM_SIM_SYSTEM_HH
#define TACSIM_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/event_queue.hh"
#include "core/core.hh"
#include "mem/dram.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "vm/page_table.hh"
#include "vm/ptw.hh"
#include "vm/tlb.hh"
#include "workloads/benchmarks.hh"

namespace tacsim {

namespace obs {
class ChromeTracer;
class Sampler;
} // namespace obs

namespace verify {
class Checker;
} // namespace verify

class System
{
  public:
    /** @param workloads one per hardware thread (threads() of them);
     *  throws std::invalid_argument for any other count, or for an
     *  inconsistent topology (validateTopology). */
    System(SystemConfig cfg,
           std::vector<std::unique_ptr<Workload>> workloads);

    /** Flushes the sampler and Chrome tracer (if configured). */
    ~System();

    /**
     * Run until every thread has retired @p instrPerThread more
     * instructions. Threads that finish early keep running (standard
     * multi-programmed methodology). For weighted/harmonic speedups each
     * thread's finish is recorded: the cycle it reached its target and
     * how many instructions it had retired since the run began by then
     * (threadCycles, threadInstructions).
     */
    void run(std::uint64_t instrPerThread);

    /** Run @p instr instructions then zero all statistics (warm-up). */
    void warmup(std::uint64_t instr);

    /** Zero statistics on every component; sets the measurement base. */
    void resetStats();

    Cycle cycle() const { return cycle_; }
    /** Cycles elapsed since the last resetStats(). */
    Cycle measuredCycles() const { return cycle_ - cycleBase_; }
    /** Cycle at which thread @p t hit its target in the last run().
     *  Meaningless before the first run() completes. */
    Cycle
    finishCycle(std::size_t t) const
    {
        TACSIM_DCHECK(ranOnce_ &&
                      "finishCycle() before any run() completed");
        TACSIM_DCHECK(t < finishCycle_.size() &&
                      "finishCycle() thread index out of range");
        return finishCycle_[t];
    }
    /** Measured cycles for thread @p t in the last run().
     *  Meaningless before the first run() completes. */
    Cycle
    threadCycles(std::size_t t) const
    {
        TACSIM_DCHECK(ranOnce_ &&
                      "threadCycles() before any run() completed");
        TACSIM_DCHECK(t < finishCycle_.size() &&
                      "threadCycles() thread index out of range");
        return finishCycle_[t] - runStartCycle_;
    }
    /** Instructions thread @p t had retired in the last run() when it
     *  reached its target: the budget plus at most retireWidth - 1.
     *  Meaningless before the first run() completes. */
    std::uint64_t
    threadInstructions(std::size_t t) const
    {
        TACSIM_DCHECK(ranOnce_ &&
                      "threadInstructions() before any run() completed");
        TACSIM_DCHECK(t < finishInstructions_.size() &&
                      "threadInstructions() thread index out of range");
        return finishInstructions_[t];
    }

    std::size_t threads() const { return cores_.size(); }
    Core &core(std::size_t t) { return *cores_[t]; }
    const Core &core(std::size_t t) const { return *cores_[t]; }

    Cache &l1d(std::size_t coreIdx = 0) { return *l1d_[coreIdx]; }
    Cache &l2(std::size_t coreIdx = 0) { return *l2_[coreIdx]; }
    /** The shared LLC. The index and llcSlices() remain only for
     *  perfbench, which predates the one-cache LLC. */
    Cache &llc(std::size_t = 0) { return *llc_; }
    std::size_t llcSlices() const { return 1; }
    Dram &dram() { return *dram_; }
    Tlb &dtlb(std::size_t coreIdx = 0) { return *dtlb_[coreIdx]; }
    Tlb &stlb(std::size_t coreIdx = 0) { return *stlb_[coreIdx]; }
    PageTableWalker &ptw(std::size_t coreIdx = 0) { return *ptw_[coreIdx]; }
    PageTable &pageTable(std::size_t t) { return *pageTables_[t]; }
    /** Host (second-dimension) page table; null unless cfg.vm.nested. */
    PageTable *hostPageTable() { return hostPageTable_.get(); }
    EventQueue &eventQueue() { return eq_; }
    const SystemConfig &config() const { return cfg_; }

    /** Total instructions retired across threads since resetStats(). */
    std::uint64_t measuredInstructions() const;

    /** Every metric in the hierarchy, registered at construction. */
    const obs::Registry &metrics() const { return registry_; }

    /**
     * Attach an invariant verifier. In TACSIM_VERIFY builds the run loop
     * calls it back at its configured event interval and at the end of
     * every run() (a drain point); other builds only keep the pointer so
     * tests can invoke Checker::checkAll() explicitly. Pass nullptr to
     * detach. The checker must outlive the system or be detached first.
     */
    void attachChecker(verify::Checker *checker) { checker_ = checker; }

  private:
    SystemConfig cfg_;
    EventQueue eq_;
    Cycle cycle_ = 0;
    Cycle cycleBase_ = 0;
    Cycle runStartCycle_ = 0;

    FrameAllocator frames_;
    FrameAllocator hostFrames_; ///< host-physical pool (nested mode)
    std::vector<std::unique_ptr<Workload>> workloads_;
    std::vector<std::unique_ptr<PageTable>> pageTables_;
    std::unique_ptr<PageTable> hostPageTable_; ///< non-null when nested

    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Tlb>> dtlb_;
    std::vector<std::unique_ptr<Tlb>> stlb_;
    std::vector<std::unique_ptr<PageTableWalker>> ptw_;
    std::vector<std::unique_ptr<Core>> cores_;

    std::vector<Cycle> finishCycle_;
    std::vector<std::uint64_t> finishInstructions_;
    bool ranOnce_ = false; ///< finish records valid after first run()
    verify::Checker *checker_ = nullptr;

    obs::Registry registry_;
    std::unique_ptr<obs::Sampler> sampler_;
    std::unique_ptr<obs::ChromeTracer> tracer_;
};

} // namespace tacsim

#endif // TACSIM_SIM_SYSTEM_HH
