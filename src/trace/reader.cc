#include "trace/reader.hh"

#include <algorithm>
#include <stdexcept>

#include "common/serialize.hh"

namespace tacsim {
namespace trace {

namespace {

constexpr std::size_t kBufferBytes = 64 * 1024;

[[noreturn]] void
fail(const std::string &path, const std::string &what)
{
    throw std::runtime_error("trace: " + what + ": " + path);
}

} // namespace

TraceReader::TraceReader(const std::string &path, bool checksum)
    : path_(path), file_(std::fopen(path.c_str(), "rb")),
      checksum_(checksum)
{
    if (!file_)
        fail(path, "cannot open");

    char fixed[kHeaderFixedBytes] = {};
    if (std::fread(fixed, 1, sizeof fixed, file_.get()) != sizeof fixed)
        fail(path, "truncated header");
    SerialReader in(std::string_view(fixed, sizeof fixed));
    if (in.getBytes(kMagic.size()) != kMagic)
        fail(path, "not a tacsim-trace file (bad magic)");
    const std::uint32_t version = in.getU32();
    if (version != kVersion)
        fail(path, "unsupported version " + std::to_string(version));
    header_.footprint = in.getU64();
    header_.seed = in.getU64();
    header_.recordCount = in.getU64();
    header_.name.resize(in.getU16());
    if (std::fread(header_.name.data(), 1, header_.name.size(),
                   file_.get()) != header_.name.size())
        fail(path, "truncated header name");
    payloadStart_ =
        static_cast<long>(kHeaderFixedBytes + header_.name.size());

    // Locate the payload's end now: every valid file ends in a
    // fixed-size footer, and the decoder must stop before it —
    // otherwise a truncated payload would silently misdecode footer
    // bytes as records instead of reporting the truncation.
    if (std::fseek(file_.get(), 0, SEEK_END) != 0)
        fail(path, "seek failed");
    payloadEnd_ =
        std::ftell(file_.get()) - static_cast<long>(kFooterBytes);
    if (payloadEnd_ < payloadStart_)
        fail(path, "file truncated (no room for footer)");
    if (std::fseek(file_.get(), payloadStart_, SEEK_SET) != 0)
        fail(path, "seek failed");
    buffer_.reserve(kBufferBytes);
}

bool
TraceReader::refill()
{
    const long at = std::ftell(file_.get());
    if (at < 0)
        fail(path_, "ftell failed");
    if (at >= payloadEnd_)
        return false; // next byte would be the footer
    const std::size_t want = std::min<std::size_t>(
        kBufferBytes, static_cast<std::size_t>(payloadEnd_ - at));
    buffer_.resize(want);
    const std::size_t got =
        std::fread(buffer_.data(), 1, buffer_.size(), file_.get());
    buffer_.resize(got);
    bufPos_ = 0;
    if (checksum_)
        crc_ = crc32(crc_, buffer_.data(), got);
    return got != 0;
}

unsigned char
TraceReader::takeByte()
{
    if (bufPos_ >= buffer_.size() && !refill())
        fail(path_,
             "payload truncated (decoded " + std::to_string(position_) +
                 " of " + std::to_string(header_.recordCount) +
                 " records)");
    return buffer_[bufPos_++];
}

std::uint64_t
TraceReader::takeVarint()
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const unsigned char b = takeByte();
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80))
            return v;
    }
    fail(path_, "overlong varint");
}

bool
TraceReader::next(TraceRecord &r)
{
    if (position_ >= header_.recordCount)
        return false;

    const unsigned char flags = takeByte();
    if (flags & ~0x07u)
        fail(path_, "corrupt record flags");
    const unsigned kind = flags & 0x03u;
    if (kind > 2)
        fail(path_, "corrupt record kind");

    r = TraceRecord{};
    r.kind = static_cast<TraceRecord::Kind>(kind);
    r.dependsOnPrevLoad = (flags & 0x04u) != 0;
    delta_.prevIp += static_cast<Addr>(zigzagDecode(takeVarint()));
    r.ip = delta_.prevIp;
    if (r.isMem()) {
        delta_.prevVaddr +=
            static_cast<Addr>(zigzagDecode(takeVarint()));
        r.vaddr = delta_.prevVaddr;
    }
    ++position_;
    return true;
}

void
TraceReader::rewind()
{
    if (std::fseek(file_.get(), payloadStart_, SEEK_SET) != 0)
        fail(path_, "rewind failed");
    buffer_.clear();
    bufPos_ = 0;
    delta_ = DeltaState{};
    position_ = 0;
    crc_ = 0;
}

std::string
TraceReader::readFooter()
{
    while (refill()) {
    }
    std::string foot(kFooterBytes, '\0');
    if (std::fread(foot.data(), 1, kFooterBytes, file_.get()) !=
        kFooterBytes)
        foot.clear();
    return foot;
}

VerifyResult
verifyTraceFile(const std::string &path)
{
    VerifyResult v;
    try {
        TraceReader reader(path, /*checksum=*/true);
        v.header = reader.header();
        if (v.header.recordCount == 0) {
            v.error = "empty trace (0 records)";
            return v;
        }

        // Decoding proves the payload is structurally sound; the bytes
        // it read, plus any left before the footer, make up the CRC.
        TraceRecord r;
        while (reader.next(r)) {
        }
        v.payloadBytes = reader.payloadBytes();
        const std::string foot = reader.readFooter();
        if (foot.empty()) {
            v.error = "truncated footer";
            return v;
        }
        SerialReader in(foot);
        if (in.getBytes(kEndMagic.size()) != kEndMagic) {
            v.error = "bad footer magic";
            return v;
        }
        const std::uint64_t footCount = in.getU64();
        if (footCount != v.header.recordCount) {
            v.error = "record count mismatch (header " +
                std::to_string(v.header.recordCount) + ", footer " +
                std::to_string(footCount) + ")";
            return v;
        }
        if (in.getU32() != reader.payloadCrc()) {
            v.error = "payload CRC mismatch";
            return v;
        }
        v.ok = true;
    } catch (const std::exception &e) {
        v.error = e.what();
    }
    return v;
}

} // namespace trace
} // namespace tacsim
