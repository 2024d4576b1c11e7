#include "sim/topology.hh"

#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/runner.hh"

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

/** Parse the count @p s into @p out; false (and @p out untouched) when
 *  @p s is not a count or does not fit @p out's type. */
template <typename T>
bool
countInto(const std::string &s, T &out)
{
    const std::optional<std::uint64_t> n =
        parseCount(s, std::numeric_limits<T>::max());
    if (n)
        out = static_cast<T>(*n);
    return n.has_value();
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

/** "16MB" / "512KB" / "1GB" / plain bytes -> nonzero byte count. */
bool
parseSize(const std::string &s, std::uint64_t &out)
{
    std::uint64_t mult = 1;
    std::string digits = s;
    if (s.size() > 2) {
        const std::string suffix = s.substr(s.size() - 2);
        if (suffix == "KB")
            mult = kKiB;
        else if (suffix == "MB")
            mult = kMiB;
        else if (suffix == "GB")
            mult = kGiB;
        if (mult != 1)
            digits = s.substr(0, s.size() - 2);
    }
    const std::optional<std::uint64_t> v =
        parseCount(digits, std::numeric_limits<std::uint64_t>::max() / mult);
    if (!v || *v == 0)
        return false;
    out = *v * mult;
    return true;
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

/** `<size>/<w>w` or `auto/<w>w` or bare `<size>` / `auto`. */
void
parseLlcValue(const std::string &value, SystemConfig &cfg)
{
    std::string sizePart = value;
    const std::size_t slash = value.find('/');
    if (slash != std::string::npos) {
        sizePart = value.substr(0, slash);
        const std::string waysPart = value.substr(slash + 1);
        if (waysPart.empty() || waysPart.back() != 'w' ||
            !countInto(waysPart.substr(0, waysPart.size() - 1),
                       cfg.llcPerCore.ways))
            fail("bad ways '" + waysPart + "' for 'llc'");
    }
    if (sizePart == "auto") {
        cfg.llcTotalBytes = 0;
        return;
    }
    if (!parseSize(sizePart, cfg.llcTotalBytes))
        fail("bad size '" + sizePart + "' for 'llc'");
}

/** `<tokens>` or `<tokens>/<window>c`. */
void
parseBwValue(const std::string &value, SystemConfig &cfg)
{
    std::string tokenPart = value;
    const std::size_t slash = value.find('/');
    if (slash != std::string::npos) {
        tokenPart = value.substr(0, slash);
        const std::string winPart = value.substr(slash + 1);
        if (winPart.empty() || winPart.back() != 'c' ||
            !countInto(winPart.substr(0, winPart.size() - 1),
                       cfg.llcBwWindow))
            fail("bad window '" + winPart + "' for 'bw'");
    }
    if (!countInto(tokenPart, cfg.llcBwTokensPerCore))
        fail("bad value '" + tokenPart + "' for 'bw'");
}

} // namespace

std::uint64_t
llcBytesOf(const SystemConfig &cfg)
{
    return cfg.llcTotalBytes
        ? cfg.llcTotalBytes
        : std::uint64_t{cfg.llcPerCore.sizeBytes} * cfg.numCores;
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
    if (!isPow2(cfg.llcSlices))
        fail("slices must be a nonzero power of two");
    if (cfg.llcBwWindow == 0)
        fail("bw window must be nonzero");

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
    if (cfg.llcSlices > sets)
        fail("slices (" + std::to_string(cfg.llcSlices) +
             ") exceed llc sets (" + std::to_string(sets) + ")");

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

SystemConfig
configFromTopology(const std::string &text, SystemConfig cfg)
{
    if (text.empty())
        fail("empty spec");

    // Keys the text omits take SystemConfig's defaults, not @p cfg's.
    const SystemConfig d;
    cfg.numCores = d.numCores;
    cfg.threadsPerCore = d.threadsPerCore;
    cfg.llcTotalBytes = d.llcTotalBytes;
    cfg.llcPerCore.ways = d.llcPerCore.ways;
    cfg.llcSlices = d.llcSlices;
    cfg.llcSliceHopLatency = d.llcSliceHopLatency;
    cfg.dram.channels = d.dram.channels;
    cfg.llcMshrQuotaPerCore = d.llcMshrQuotaPerCore;
    cfg.llcBwTokensPerCore = d.llcBwTokensPerCore;
    cfg.llcBwWindow = d.llcBwWindow;

    std::vector<std::string> seen;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;

        const std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0)
            fail("expected key=value, got '" + item + "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);

        for (const std::string &k : seen)
            if (k == key)
                fail("duplicate key '" + key + "'");
        seen.push_back(key);

        auto count = [&](auto &field) {
            if (!countInto(value, field))
                fail("bad value '" + value + "' for '" + key + "'");
        };
        if (key == "cores")
            count(cfg.numCores);
        else if (key == "smt")
            count(cfg.threadsPerCore);
        else if (key == "llc")
            parseLlcValue(value, cfg);
        else if (key == "slices")
            count(cfg.llcSlices);
        else if (key == "slice_lat")
            count(cfg.llcSliceHopLatency);
        else if (key == "chan")
            count(cfg.dram.channels);
        else if (key == "mshr_quota")
            count(cfg.llcMshrQuotaPerCore);
        else if (key == "bw")
            parseBwValue(value, cfg);
        else
            fail("unknown key '" + key + "'");
    }

    validateTopology(cfg);
    return cfg;
}

std::string
topologyText(const SystemConfig &cfg)
{
    const SystemConfig d;
    std::string out = "cores=" + std::to_string(cfg.numCores);
    if (cfg.threadsPerCore != d.threadsPerCore)
        out += ",smt=" + std::to_string(cfg.threadsPerCore);
    if (cfg.llcTotalBytes != d.llcTotalBytes ||
        cfg.llcPerCore.ways != d.llcPerCore.ways) {
        out += ",llc=";
        out += cfg.llcTotalBytes ? formatSize(cfg.llcTotalBytes)
                                 : std::string("auto");
        out += "/" + std::to_string(cfg.llcPerCore.ways) + "w";
    }
    if (cfg.llcSlices != d.llcSlices)
        out += ",slices=" + std::to_string(cfg.llcSlices);
    if (cfg.llcSliceHopLatency != d.llcSliceHopLatency)
        out += ",slice_lat=" + std::to_string(cfg.llcSliceHopLatency);
    if (cfg.dram.channels != d.dram.channels)
        out += ",chan=" + std::to_string(cfg.dram.channels);
    if (cfg.llcMshrQuotaPerCore != d.llcMshrQuotaPerCore)
        out += ",mshr_quota=" + std::to_string(cfg.llcMshrQuotaPerCore);
    if (cfg.llcBwTokensPerCore != d.llcBwTokensPerCore) {
        out += ",bw=" + std::to_string(cfg.llcBwTokensPerCore);
        if (cfg.llcBwWindow != d.llcBwWindow)
            out += "/" + std::to_string(cfg.llcBwWindow) + "c";
    }
    return out;
}

} // namespace tacsim
