#include "trace/champsim.hh"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

#include "common/serialize.hh"
#include "trace/writer.hh"

namespace tacsim {
namespace trace {

namespace {

// ChampSim input_instr register and memory operand counts.
constexpr std::size_t kNumDest = 2;
constexpr std::size_t kNumSrc = 4;

/** Fill exactly @p want bytes from @p src (which may return short
 *  counts); returns bytes actually produced (< want only at EOF). */
std::size_t
fillExact(const ByteSource &src, char *out, std::size_t want)
{
    std::size_t got = 0;
    while (got < want) {
        const std::size_t n = src(out + got, want - got);
        if (n == 0)
            break;
        got += n;
    }
    return got;
}

} // namespace

ChampSimImportStats
importChampSim(const ByteSource &src, const std::string &outPath,
               const ChampSimImportOptions &opts)
{
    TraceHeader header;
    header.name = opts.name;
    header.footprint = opts.footprint;
    header.seed = opts.seed;
    TraceWriter writer(outPath, header);

    ChampSimImportStats stats;

    // Registers written by the most recent load instruction: a later
    // memory access sourcing one of them is address-dependent on that
    // load (tacsim's dependsOnPrevLoad).
    std::array<bool, 256> loadDest{};

    auto emit = [&](const TraceRecord &r) {
        writer.append(r);
        ++stats.records;
        if (r.isMem()) {
            stats.minVaddr = std::min(stats.minVaddr, r.vaddr);
            stats.maxVaddr = std::max(stats.maxVaddr, r.vaddr);
        }
        if (r.dependsOnPrevLoad)
            ++stats.dependent;
    };

    char rec[kChampSimRecordBytes] = {};
    for (;;) {
        if (opts.maxInstructions &&
            stats.instructions >= opts.maxInstructions)
            break;
        const std::size_t got = fillExact(src, rec, sizeof rec);
        if (got == 0)
            break;
        if (got != sizeof rec)
            throw std::runtime_error(
                "champsim import: truncated input_instr record (" +
                std::to_string(got) + " trailing bytes)");
        ++stats.instructions;

        // The record's fields, in order (little-endian).
        SerialReader in(std::string_view(rec, sizeof rec));
        const Addr ip = in.getU64();
        in.getBytes(2); // is_branch, branch_taken
        std::uint8_t destRegs[kNumDest] = {}, srcRegs[kNumSrc] = {};
        Addr destMem[kNumDest] = {}, srcMem[kNumSrc] = {};
        for (std::uint8_t &reg : destRegs)
            reg = in.getU8();
        for (std::uint8_t &reg : srcRegs)
            reg = in.getU8();
        for (Addr &va : destMem)
            va = in.getU64();
        for (Addr &va : srcMem)
            va = in.getU64();

        bool depends = false;
        for (const std::uint8_t reg : srcRegs)
            if (reg && loadDest[reg])
                depends = true;

        bool anyMem = false;
        bool anyLoad = false;
        for (const Addr va : srcMem) {
            if (!va)
                continue;
            TraceRecord r;
            r.ip = ip;
            r.kind = TraceRecord::Kind::Load;
            r.vaddr = va;
            r.dependsOnPrevLoad = depends;
            emit(r);
            ++stats.loads;
            anyMem = anyLoad = true;
        }
        for (const Addr va : destMem) {
            if (!va)
                continue;
            TraceRecord r;
            r.ip = ip;
            r.kind = TraceRecord::Kind::Store;
            r.vaddr = va;
            r.dependsOnPrevLoad = depends;
            emit(r);
            ++stats.stores;
            anyMem = true;
        }
        if (!anyMem) {
            TraceRecord r;
            r.ip = ip;
            emit(r);
            ++stats.nonMem;
        }

        // A load replaces the dependence set with its destinations; any
        // other instruction overwrites (kills) the registers it writes.
        if (anyLoad)
            loadDest.fill(false);
        for (const std::uint8_t reg : destRegs)
            if (reg)
                loadDest[reg] = anyLoad;
    }

    if (stats.records == 0)
        throw std::runtime_error("champsim import: empty input");

    if (opts.footprint == 0 && stats.maxVaddr >= stats.minVaddr &&
        stats.loads + stats.stores > 0)
        writer.setFootprint(stats.maxVaddr - stats.minVaddr + 1);
    writer.finalize();
    return stats;
}

} // namespace trace
} // namespace tacsim
