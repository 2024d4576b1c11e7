#include "sim/topology.hh"

#include <limits>
#include <stdexcept>
#include <utility>

#include "cache/cache.hh"

namespace tacsim {

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    throw std::invalid_argument("topology: " + msg);
}

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = kKiB * 1024;
constexpr std::uint64_t kGiB = kMiB * 1024;

/** Fail unless @p size units in @p ways-way sets (the fields named
 *  @p sizeField and @p waysField) give a power-of-two set count: a
 *  set-indexed array masks its index. */
void
requirePow2Sets(const std::string &sizeField, std::uint64_t size,
                const std::string &waysField, std::uint64_t ways,
                std::uint64_t unit)
{
    if (ways == 0)
        fail(waysField + " = 0 must be nonzero");
    const std::uint64_t row = ways * unit;
    if (size % row != 0 || !isPow2(size / row))
        fail(sizeField + " = " + std::to_string(size) + " with " +
             waysField + " = " + std::to_string(ways) +
             " does not yield a power-of-two set count");
}

std::string
formatSize(std::uint64_t bytes)
{
    if (bytes % kGiB == 0)
        return std::to_string(bytes / kGiB) + "GB";
    if (bytes % kMiB == 0)
        return std::to_string(bytes / kMiB) + "MB";
    if (bytes % kKiB == 0)
        return std::to_string(bytes / kKiB) + "KB";
    return std::to_string(bytes);
}

} // namespace

std::uint64_t
llcBytesOf(const SystemConfig &cfg)
{
    return std::uint64_t{cfg.llcPerCore.sizeBytes} * cfg.numCores;
}

unsigned
dramChannelsOf(const SystemConfig &cfg)
{
    return cfg.dram.channels ? cfg.dram.channels : (cfg.numCores + 3) / 4;
}

void
validateTopology(const SystemConfig &cfg)
{
    if (cfg.numCores == 0)
        fail("cores must be nonzero");
    if (cfg.numCores > 1024)
        fail("cores must be <= 1024");
    if (cfg.threadsPerCore == 0 || cfg.threadsPerCore > 8)
        fail("smt must be in 1..8");
    if (!isPow2(cfg.llcPerCore.ways))
        fail("llc ways must be a nonzero power of two");

    const std::uint64_t bytes = llcBytesOf(cfg);
    const std::uint64_t rowBytes =
        std::uint64_t{cfg.llcPerCore.ways} * kBlockSize;
    const std::uint64_t sets = bytes / rowBytes;
    if (bytes % rowBytes != 0 || !isPow2(sets))
        fail("llc size " + formatSize(bytes) + " with " +
             std::to_string(cfg.llcPerCore.ways) +
             " ways does not yield a power-of-two set count");
    if (sets > std::numeric_limits<decltype(CacheParams::sets)>::max())
        fail("llc size " + formatSize(bytes) + " with " +
             std::to_string(cfg.llcPerCore.ways) + " ways needs " +
             std::to_string(sets) + " sets, more than a cache can index");

    // The private structures. Their constructors assert the same
    // shapes; an exception here fails one sweep point, not the process.
    requirePow2Sets("l1d.sizeBytes", cfg.l1d.sizeBytes, "l1d.ways",
                    cfg.l1d.ways, kBlockSize);
    requirePow2Sets("l2.sizeBytes", cfg.l2.sizeBytes, "l2.ways",
                    cfg.l2.ways, kBlockSize);
    requirePow2Sets("dtlbEntries", cfg.dtlbEntries, "dtlbWays",
                    cfg.dtlbWays, 1);
    requirePow2Sets("stlbEntries", cfg.stlbEntries, "stlbWays",
                    cfg.stlbWays, 1);
    for (std::size_t i = 0; i < cfg.ptw.pscSizes.size(); ++i)
        if (cfg.ptw.pscSizes[i] == 0)
            fail("ptw.pscSizes[" + std::to_string(i) + "] = 0 (PSCL" +
                 std::to_string(i + 2) + ") must be nonzero");
    // Widths, queue depths and DRAM geometry a run divides by or waits
    // on: zero hangs the core, deadlocks it or traps in Dram::bankOf.
    const std::pair<const char *, std::uint64_t> nonzero[] = {
        {"core.issueWidth", cfg.core.issueWidth},
        {"core.retireWidth", cfg.core.retireWidth},
        {"l1d.mshrs", cfg.l1d.mshrs},
        {"l2.mshrs", cfg.l2.mshrs},
        {"ptw.maxConcurrentWalks", cfg.ptw.maxConcurrentWalks},
        {"dram.banksPerChannel", cfg.dram.banksPerChannel},
        {"dram.rowBytes", cfg.dram.rowBytes}};
    for (const auto &[field, value] : nonzero)
        if (value == 0)
            fail(std::string(field) + " = 0 must be nonzero");
    if (cfg.core.robSize < cfg.threadsPerCore)
        fail("core.robSize = " + std::to_string(cfg.core.robSize) +
             " must be at least threadsPerCore = " +
             std::to_string(cfg.threadsPerCore));
    if (cfg.llcDeadBlock && cfg.llcCsalt)
        fail("llcDeadBlock and llcCsalt are both set; the LLC takes one "
             "wrapper");
}

std::string
topologyText(const SystemConfig &cfg)
{
    const SystemConfig d;
    std::string out = "cores=" + std::to_string(cfg.numCores);
    if (cfg.threadsPerCore != d.threadsPerCore)
        out += ",smt=" + std::to_string(cfg.threadsPerCore);
    if (cfg.llcPerCore.ways != d.llcPerCore.ways)
        out += ",llc=" + formatSize(llcBytesOf(cfg)) + "/" +
            std::to_string(cfg.llcPerCore.ways) + "w";
    if (cfg.dram.channels != d.dram.channels)
        out += ",chan=" + std::to_string(cfg.dram.channels);
    return out;
}

} // namespace tacsim
