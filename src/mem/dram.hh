/**
 * @file
 * DDR5-class DRAM channel model with banks, open-row policy and a shared
 * data bus, plus the memory controller that fronts the channels.
 *
 * This is a latency/bandwidth model in the ChampSim fidelity class, not a
 * JEDEC state machine: each read is charged controller latency, bank
 * availability, row-buffer hit/miss/conflict timing, and data-bus
 * occupancy. Writes drain opportunistically and consume bus slots.
 *
 * The controller is also where TEMPO (Bhattacharjee, ASPLOS'17) lives:
 * when a *leaf* page-table read is serviced from DRAM, TEMPO immediately
 * fetches the replay data line the PTE maps and pushes it up into the LLC
 * (paper §IV, Fig. 13 rightmost case).
 */

#ifndef TACSIM_MEM_DRAM_HH
#define TACSIM_MEM_DRAM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace tacsim {

namespace obs {
class ChromeTracer;
class Registry;
} // namespace obs

/** Tuning knobs for one DRAM channel (all in core cycles @ 4 GHz). */
struct DramParams
{
    unsigned channels = 1;
    unsigned banksPerChannel = 32;   ///< 2 ranks x 16 banks
    std::uint64_t rowBytes = 8192;   ///< row-buffer size
    Cycle tController = 10;          ///< queueing/controller overhead
    Cycle tCas = 64;                 ///< CL ~16 ns @ 4 GHz
    Cycle tRcd = 64;                 ///< RAS-to-CAS
    Cycle tRp = 64;                  ///< precharge
    Cycle tBurst = 5;                ///< 64B line @ 51.2 GB/s, 4 GHz
    bool tempo = false;              ///< enable TEMPO replay prefetch
};

/** Per-request DRAM service statistics. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t translationReads = 0;
    std::uint64_t tempoPrefetches = 0;
    std::uint64_t busyCycles = 0; ///< total data-bus occupancy charged

    void
    reset()
    {
        *this = DramStats{};
    }
};

/**
 * Memory controller + channels. Implements MemDevice; completion is
 * scheduled on the shared event queue.
 */
class Dram : public MemDevice
{
  public:
    /** Callback used by TEMPO to inject a prefetch fill into the LLC. */
    using TempoHook = std::function<void(Addr blockPaddr, Addr ip)>;

    Dram(std::string name, EventQueue &eq, DramParams p = {});

    void access(const MemRequestPtr &req) override;
    const std::string &name() const override { return name_; }

    /** Install the hook TEMPO uses to push replay lines into the LLC. */
    void setTempoHook(TempoHook h) { tempoHook_ = std::move(h); }

    const DramStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Register controller counters under "@p prefix.", plus the reset
     *  hook. */
    void registerMetrics(obs::Registry &registry,
                         const std::string &prefix);

    /** Attach a Chrome tracer; row-buffer hits/misses/conflicts are
     *  emitted as instant events on @p track. Pass nullptr to detach. */
    void setTracer(obs::ChromeTracer *tracer, std::uint32_t track);

    const DramParams &params() const { return params_; }

    /** Verify controller invariants: channel/bank geometry matches the
     *  parameters, row-state accounting conserves requests, open-row
     *  bookkeeping is coherent. Throws verify::InvariantViolation. */
    void checkInvariants() const;

  private:
    struct Bank
    {
        Cycle readyAt = 0;
        Addr openRow = ~Addr{0};
        bool rowValid = false;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
    };

    /** Compute service completion cycle for a line at @p paddr. */
    Cycle serviceLine(Addr paddr, bool isWrite);

    unsigned channelOf(Addr paddr) const;
    unsigned bankOf(Addr paddr) const;
    Addr rowOf(Addr paddr) const;

    std::string name_;
    EventQueue &eq_;
    DramParams params_;
    std::vector<Channel> channels_;
    DramStats stats_;
    TempoHook tempoHook_;

    obs::ChromeTracer *tracer_ = nullptr; ///< null = tracing disabled
    std::uint32_t track_ = 0;
    std::uint32_t rowHitId_ = 0;
    std::uint32_t rowMissId_ = 0;
    std::uint32_t rowConflictId_ = 0;
};

} // namespace tacsim

#endif // TACSIM_MEM_DRAM_HH
