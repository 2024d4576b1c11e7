#include "trace/format.hh"

#include <stdexcept>

#include "common/serialize.hh"

namespace tacsim {
namespace trace {

void
appendVarint(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

void
encodeRecord(std::vector<unsigned char> &out, const TraceRecord &r,
             DeltaState &ds)
{
    const unsigned char flags =
        static_cast<unsigned char>(r.kind) |
        static_cast<unsigned char>(r.dependsOnPrevLoad ? 0x04 : 0x00);
    out.push_back(flags);
    appendVarint(out, zigzagEncode(static_cast<std::int64_t>(
                          r.ip - ds.prevIp)));
    ds.prevIp = r.ip;
    if (r.isMem()) {
        appendVarint(out, zigzagEncode(static_cast<std::int64_t>(
                              r.vaddr - ds.prevVaddr)));
        ds.prevVaddr = r.vaddr;
    }
}

std::string
encodeHeader(const TraceHeader &h)
{
    if (h.name.size() > 0xFFFF)
        throw std::runtime_error("trace: benchmark name too long");
    SerialWriter w;
    w.putBytes(kMagic);
    w.putU32(kVersion);
    w.putU64(h.footprint);
    w.putU64(h.seed);
    w.putU64(h.recordCount);
    w.putU16(static_cast<std::uint16_t>(h.name.size()));
    w.putBytes(h.name);
    return w.bytes();
}

std::string
encodeFooter(std::uint64_t recordCount, std::uint32_t crc)
{
    SerialWriter w;
    w.putBytes(kEndMagic);
    w.putU64(recordCount);
    w.putU32(crc);
    return w.bytes();
}

} // namespace trace
} // namespace tacsim
