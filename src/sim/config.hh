/**
 * @file
 * Full-system configuration. Defaults reproduce the paper's Table I
 * (Intel Sunny-Cove-like): 352-entry ROB 6-issue/4-retire core, 64-entry
 * DTLB + 2048-entry STLB, PSCL5/4/3/2 of 2/4/8/32 entries, 48KB L1D,
 * 512KB L2 (DRRIP), 2MB/core LLC (SHiP), one DDR5-6400 channel per four
 * cores.
 */

#ifndef TACSIM_SIM_CONFIG_HH
#define TACSIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/repl/policy.hh"
#include "core/core.hh"
#include "mem/dram.hh"
#include "prefetch/factory.hh"
#include "vm/ptw.hh"

namespace tacsim {

/**
 * Observability outputs (src/obs/). Empty paths disable each sink, and
 * a disabled sink costs nothing in the run loop. Paths may contain the
 * literal "{key}" — the sweep runner expands it with the point's sweep
 * key, the workload runner with the run label — so parallel points
 * never write to the same file.
 */
struct ObsConfig
{
    /** Retired instructions between time-series samples (0 = 10000). */
    std::uint64_t sampleInterval = 0;
    /** tacsim-timeseries-v1 JSONL output path. */
    std::string timeseriesPath;
    /** Chrome-trace (Perfetto-loadable) JSON output path. */
    std::string chromeTracePath;
    /** Run label recorded in the time-series header. */
    std::string label;
};

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint32_t sizeBytes;
    std::uint32_t ways;
    Cycle latency;
    std::uint32_t mshrs;

    std::uint32_t
    sets() const
    {
        return sizeBytes / (ways * static_cast<std::uint32_t>(kBlockSize));
    }
};

/**
 * Virtual-memory regime: huge-page coverage and nested (virtualized)
 * translation. Defaults reproduce the paper's bare-metal all-4K setup;
 * the fractions model THP-style promotion (the deterministic per-region
 * policy in vm/page_table.hh).
 */
struct VmConfig
{
    /** Fraction of 2M-aligned guest regions backed by 2M pages. */
    double hugePages2M = 0.0;
    /** Fraction of 1G-aligned guest regions backed by 1G pages. */
    double hugePages1G = 0.0;
    /** Nested 2D translation: guest tables hold guest-physical
     *  addresses, each resolved by a host walk (up to
     *  (gL+1)*hL + gL references per STLB miss). */
    bool nested = false;
    /** Host-dimension huge-page coverage (nested mode only). */
    double hostHugePages2M = 0.0;
    double hostHugePages1G = 0.0;

    bool
    anyHugePages() const
    {
        return hugePages2M > 0.0 || hugePages1G > 0.0;
    }
};

struct SystemConfig
{
    unsigned numCores = 1;
    unsigned threadsPerCore = 1; ///< 2 = SMT (shared hierarchy)

    CoreParams core; ///< per-thread ROB is core.robSize / threadsPerCore

    // TLBs (Table I).
    std::uint32_t dtlbEntries = 64, dtlbWays = 4;
    Cycle dtlbLatency = 1;
    std::uint32_t stlbEntries = 2048, stlbWays = 16;
    Cycle stlbLatency = 8;
    PageTableWalker::Params ptw;

    // Cache hierarchy (Table I).
    // MSHR depths are sized for a Sunny-Cove-class core (the L1D's also
    // carry page-walker traffic): shallow buffers would throttle the
    // memory-level parallelism a 352-entry ROB exposes.
    CacheGeometry l1d{48 * 1024, 12, 5, 32};
    CacheGeometry l2{512 * 1024, 8, 10, 64};
    CacheGeometry llcPerCore{2 * 1024 * 1024, 16, 20, 128};

    // Shared-LLC composition (sim/topology.hh writes these; the
    // defaults reproduce the fixed pre-topology machine exactly).
    /** Total LLC bytes; 0 derives llcPerCore.sizeBytes * numCores. */
    std::uint64_t llcTotalBytes = 0;
    /** Address-interleaved LLC slices (power of two; 1 = monolithic). */
    unsigned llcSlices = 1;
    /** Extra cycles per ring hop from a core to a remote slice. */
    Cycle llcSliceHopLatency = 0;
    /** Per-core cap on live MSHRs in each LLC slice; 0 disables. */
    std::uint32_t llcMshrQuotaPerCore = 0;
    /** Per-core LLC demand lookups per llcBwWindow cycles; 0 = off. */
    std::uint32_t llcBwTokensPerCore = 0;
    Cycle llcBwWindow = 64;

    PolicyKind l2Policy = PolicyKind::DRRIP;
    ReplOpts l2Opts;
    PolicyKind llcPolicy = PolicyKind::SHiP;
    ReplOpts llcOpts;
    bool llcDeadBlock = false; ///< CbPred-style wrapper (§V-B)
    bool llcCsalt = false;     ///< CSALT-style wrapper (§V-B)

    PrefetcherKind l1Prefetcher = PrefetcherKind::None;
    PrefetcherKind l2Prefetcher = PrefetcherKind::None;

    // The paper's mechanisms.
    bool atpL2 = false;
    bool atpLlc = false;
    bool tempo = false;

    // Fig. 2 ideal modes.
    bool idealL2Translations = false;
    bool idealL2Replays = false;
    bool idealLlcTranslations = false;
    bool idealLlcReplays = false;

    // Profiling (Figs. 5/7/18).
    bool profileCacheRecall = false;
    bool profileStlbRecall = false;

    DramParams dram;

    VmConfig vm;

    ObsConfig obs;

    std::uint64_t seed = 1;

    unsigned threads() const { return numCores * threadsPerCore; }
};

/**
 * The paper's proposal as one switch set: pass to
 * applyTranslationAware() to layer T-DRRIP / T-SHiP / ATP / TEMPO on a
 * baseline config. Partial combinations give the paper's incremental
 * bars (Fig. 14) and ablations (Figs. 10, 12).
 */
struct TranslationAwareOptions
{
    bool tDrrip = true;  ///< L2C: translations RRPV=0, replays RRPV=3
    bool tShip = true;   ///< LLC: new signatures + translations RRPV=0
    bool newSignaturesOnly = false; ///< Fig. 12 middle bar
    bool atp = true;     ///< translation-hit-triggered replay prefetch
    bool tempo = false;  ///< DRAM-controller replay prefetch
};

/** Layer the paper's enhancements onto @p cfg. */
void applyTranslationAware(SystemConfig &cfg,
                           const TranslationAwareOptions &opts = {});

/**
 * @p cfg with its observability outputs bound to one point: every
 * "{key}" in the output paths becomes obs::sanitizeKey(@p key), and an
 * empty obs label becomes @p key (see ObsConfig).
 */
SystemConfig configForPoint(SystemConfig cfg, const std::string &key);

/**
 * Canonical, behavior-complete text form of a SystemConfig: one
 * "key value" line per field that can change simulation results, in a
 * fixed order, with doubles printed round-trip-exactly. Two configs
 * produce the same text iff they simulate identically, which makes this
 * the config component of serve::pointKey (the sweep memo's key) and of
 * serve::warmKey, the stamp inside tacsim-ckpt-v2 checkpoints.
 * Observability sinks (ObsConfig) are deliberately excluded: they alter
 * outputs on disk, never simulated behavior.
 */
std::string canonicalConfigText(const SystemConfig &cfg);

} // namespace tacsim

#endif // TACSIM_SIM_CONFIG_HH
