/**
 * @file
 * The `tacsim-trace-v1` on-disk format: a versioned, dependency-free
 * binary container for recorded instruction streams.
 *
 * Layout (integers little-endian, coded by common/serialize.hh, whose
 * crc32() also checks the payload):
 *
 *   header   8B magic "TACTRCv1"
 *            u32 version (= 1)
 *            u64 footprint        (Workload::footprint of the source,
 *                                  or an import's address span)
 *            u64 seed             (generator seed, 0 for imports)
 *            u64 recordCount      (patched by TraceWriter::finalize)
 *            u16 nameLen, then nameLen bytes of benchmark name
 *   payload  recordCount encoded TraceRecords (see below)
 *   footer   4B end magic "TEND"
 *            u64 recordCount      (must equal the header's)
 *            u32 CRC-32 (IEEE) of the payload bytes
 *
 * Record encoding — one flags byte, then LEB128 varints:
 *
 *   flags    bits [1:0] TraceRecord::Kind (0 NonMem, 1 Load, 2 Store)
 *            bit  [2]   dependsOnPrevLoad
 *            bits [7:3] reserved, must be zero
 *   ip       zigzag-LEB128 delta against the previous record's ip
 *   vaddr    zigzag-LEB128 delta against the previous memory record's
 *            vaddr (memory records only)
 *
 * Both delta chains start from 0 at the beginning of the payload, so a
 * reader that rewinds to the payload start (TraceFileWorkload loops at
 * EOF) just resets its DeltaState. Deltas + LEB128 keep hot loops at
 * 2-4 bytes per record instead of 17.
 */

#ifndef TACSIM_TRACE_FORMAT_HH
#define TACSIM_TRACE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "core/trace.hh"

namespace tacsim {
namespace trace {

constexpr std::string_view kMagic = "TACTRCv1";
constexpr std::string_view kEndMagic = "TEND";
constexpr std::uint32_t kVersion = 1;

/** Fixed-size part of the header (magic..nameLen, excluding the name). */
constexpr std::size_t kHeaderFixedBytes = 8 + 4 + 8 + 8 + 8 + 2;
/** Size of the footer (end magic + recordCount + CRC-32). */
constexpr std::size_t kFooterBytes = 4 + 8 + 4;

/** Decoded header metadata. */
struct TraceHeader
{
    std::string name;    ///< benchmark name ("mcf", "xalancbmk", ...)
    Addr footprint = 0;  ///< virtual footprint in bytes
    std::uint64_t seed = 0;
    std::uint64_t recordCount = 0;
};

/** Append @p v as unsigned LEB128. */
void appendVarint(std::vector<unsigned char> &out, std::uint64_t v);

/** Zigzag-fold a signed delta into an unsigned varint payload. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
        -static_cast<std::int64_t>(v & 1);
}

/** Delta-chain state shared by the record encoder and decoder. Reset to
 *  the default state whenever (re)starting from the payload start. */
struct DeltaState
{
    Addr prevIp = 0;
    Addr prevVaddr = 0;
};

/** Append the encoding of @p r to @p out, advancing @p ds. */
void encodeRecord(std::vector<unsigned char> &out, const TraceRecord &r,
                  DeltaState &ds);

/**
 * Serialize the header for @p h (recordCount as currently set).
 * Throws std::runtime_error if the name is longer than 64KiB.
 */
std::string encodeHeader(const TraceHeader &h);

/** Serialize the footer for @p recordCount / @p crc. */
std::string encodeFooter(std::uint64_t recordCount, std::uint32_t crc);

} // namespace trace
} // namespace tacsim

#endif // TACSIM_TRACE_FORMAT_HH
