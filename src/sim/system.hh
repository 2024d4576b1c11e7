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
 * The machine shape is SystemConfig's composition fields, which
 * topology text (sim/topology.hh) sets: core/SMT counts, total LLC
 * capacity (llcBytesOf), the LLC's address-interleaved slicing (one
 * Cache per slice behind a SliceRouter), DRAM channels
 * (dramChannelsOf), and the per-core MSHR-quota / bandwidth-token
 * arbitration the shared slices apply. The defaults reproduce the
 * fixed pre-topology machine exactly: one monolithic slice, no router,
 * no arbitration.
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

class SliceRouter;

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
     * multi-programmed methodology); per-thread finish cycles are
     * recorded for weighted/harmonic speedups.
     */
    void run(std::uint64_t instrPerThread);

    /** Run @p instr instructions then zero all statistics (warm-up). */
    void warmup(std::uint64_t instr);

    /**
     * Drain to a quiesced boundary: suspend dispatch on every core,
     * keep ticking until all ROBs are empty and the event queue is dry
     * (outstanding misses, walks and background writes complete). This
     * is the only legal point to save state() from — with nothing in
     * flight, the checkpoint needs no MSHR/walk/event serialization.
     * Deterministic: a straight-through run and a restored run execute
     * the same drain, so their stats remain byte-identical.
     */
    void quiesce();

    /**
     * Save or restore the full mutable simulation state (the
     * tacsim-ckpt-v2 payload; sim/checkpoint.hh adds the file
     * container). A save requires a quiesced system and leaves it
     * unchanged. A restore goes into a freshly built System of the
     * *same point* (the container checks the file's point-key stamp
     * before calling this); after it, resetStats() + run() reproduces
     * the original continuation byte-for-byte. Throws when a component
     * with unsupported state is attached (sampler, tracer, prefetchers,
     * recall profilers, policies without save support).
     */
    void state(StateArchive &ar);

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

    std::size_t threads() const { return cores_.size(); }
    Core &core(std::size_t t) { return *cores_[t]; }
    const Core &core(std::size_t t) const { return *cores_[t]; }

    Cache &l1d(std::size_t coreIdx = 0) { return *l1d_[coreIdx]; }
    Cache &l2(std::size_t coreIdx = 0) { return *l2_[coreIdx]; }
    /** LLC slice @p slice (the whole LLC when unsliced). */
    Cache &llc(std::size_t slice = 0) { return *llc_[slice]; }
    std::size_t llcSlices() const { return llc_.size(); }
    /** Home slice of @p paddr under the address interleave. */
    Cache &
    llcSliceFor(Addr paddr)
    {
        return *llc_[static_cast<std::uint32_t>(paddr >> kBlockBits) &
                     llcSliceMask_];
    }
    /** Slice interconnect; null when the LLC is monolithic. */
    SliceRouter *llcRouter() { return llcRouter_.get(); }
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
    std::unique_ptr<ReplPolicy> buildLlcPolicy(std::uint32_t sets,
                                               std::uint32_t ways,
                                               std::uint64_t seed) const;

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
    std::vector<std::unique_ptr<Cache>> llc_; ///< one entry per slice
    std::unique_ptr<SliceRouter> llcRouter_;  ///< non-null when sliced
    std::uint32_t llcSliceMask_ = 0;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Tlb>> dtlb_;
    std::vector<std::unique_ptr<Tlb>> stlb_;
    std::vector<std::unique_ptr<PageTableWalker>> ptw_;
    std::vector<std::unique_ptr<Core>> cores_;

    std::vector<Cycle> finishCycle_;
    bool ranOnce_ = false; ///< finish cycles valid after first run()
    verify::Checker *checker_ = nullptr;

    obs::Registry registry_;
    std::unique_ptr<obs::Sampler> sampler_;
    std::unique_ptr<obs::ChromeTracer> tracer_;
};

} // namespace tacsim

#endif // TACSIM_SIM_SYSTEM_HH
