/**
 * @file
 * The little-endian codec of tacsim's binary container, the trace file
 * (tacsim-trace-v1, trace/format.hh): its header and footer, and the
 * ChampSim records the importer reads, go through SerialWriter and
 * SerialReader, and the footer checks the payload with crc32(). The
 * trace *records* keep their own compact varint encoding
 * (trace/format.hh).
 *
 * The encoding is deliberately dumb: fixed-width little-endian integers
 * and length-prefixed byte strings, no varints, no alignment.
 *
 * Readers are bounds-checked: running off the end throws
 * std::runtime_error rather than reading garbage, and a length prefix
 * is checked against the bytes present before anything is allocated.
 * The trace code decodes only buffers whose length it has already
 * checked.
 */

#ifndef TACSIM_COMMON_SERIALIZE_HH
#define TACSIM_COMMON_SERIALIZE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tacsim {

/** Incremental CRC-32 (IEEE 802.3, reflected). Start with crc = 0. */
inline std::uint32_t
crc32(std::uint32_t crc, const void *data, std::size_t n)
{
    static constexpr auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            t[i] = i;
            for (int k = 0; k < 8; ++k)
                t[i] = (t[i] & 1) ? 0xEDB88320u ^ (t[i] >> 1) : t[i] >> 1;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

/** Append-only little-endian byte sink. */
class SerialWriter
{
  public:
    void
    putU8(std::uint8_t v)
    {
        bytes_.push_back(static_cast<char>(v));
    }

    void
    putU16(std::uint16_t v)
    {
        putU8(static_cast<std::uint8_t>(v));
        putU8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    putU32(std::uint32_t v)
    {
        putU16(static_cast<std::uint16_t>(v));
        putU16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    putU64(std::uint64_t v)
    {
        putU32(static_cast<std::uint32_t>(v));
        putU32(static_cast<std::uint32_t>(v >> 32));
    }

    /** Raw bytes, no length prefix. */
    void putBytes(std::string_view s) { bytes_.append(s); }

    /** Length-prefixed byte string. */
    void
    putString(std::string_view s)
    {
        putU64(s.size());
        putBytes(s);
    }

    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
};

/** Bounds-checked reader over bytes that must outlive it (getBytes()
 *  and getString() return views into them). */
class SerialReader
{
  public:
    explicit SerialReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t
    getU8()
    {
        need(1);
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    std::uint16_t
    getU16()
    {
        const std::uint16_t lo = getU8();
        const std::uint16_t hi = getU8();
        return static_cast<std::uint16_t>(lo | (hi << 8));
    }

    std::uint32_t
    getU32()
    {
        const std::uint32_t lo = getU16();
        const std::uint32_t hi = getU16();
        return lo | (hi << 16);
    }

    std::uint64_t
    getU64()
    {
        const std::uint64_t lo = getU32();
        const std::uint64_t hi = getU32();
        return lo | (hi << 32);
    }

    /** The next @p n bytes, viewed in place. @p n is checked against
     *  the bytes left, so it cannot drive a copy or an allocation
     *  larger than the input. */
    std::string_view
    getBytes(std::uint64_t n)
    {
        need(n);
        const std::string_view s = bytes_.substr(pos_, n);
        pos_ += s.size();
        return s;
    }

    /** Length-prefixed byte string, viewed in place. */
    std::string_view getString() { return getBytes(getU64()); }

    std::size_t remaining() const { return bytes_.size() - pos_; }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > remaining())
            throw std::runtime_error(
                "serialize: truncated input (need " + std::to_string(n) +
                " bytes, have " + std::to_string(remaining()) + ")");
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

} // namespace tacsim

#endif // TACSIM_COMMON_SERIALIZE_HH
