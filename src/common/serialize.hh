/**
 * @file
 * Byte-stream serialization primitives for simulation checkpoints
 * (tacsim-ckpt-v2, sim/checkpoint.hh).
 *
 * The encoding is deliberately dumb: fixed-width little-endian integers
 * and length-prefixed byte strings, no varints, no alignment. Checkpoint
 * files are written and read by the same binary family, and the CRC
 * footer plus the embedded canonical-config text (checked by the
 * loader) already reject any cross-version confusion — so simplicity
 * and auditability win over compactness here, unlike the trace format
 * (trace/format.hh) where size per record matters.
 *
 * Readers are bounds-checked: running off the end throws
 * std::runtime_error rather than reading garbage, so a truncated
 * checkpoint degrades to a clean load failure.
 */

#ifndef TACSIM_COMMON_SERIALIZE_HH
#define TACSIM_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace tacsim {

/** Append-only byte sink for checkpoint payloads. */
class SerialWriter
{
  public:
    void
    putU8(std::uint8_t v)
    {
        bytes_.push_back(v);
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

    void
    putI64(std::int64_t v)
    {
        putU64(static_cast<std::uint64_t>(v));
    }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    void
    putDouble(double v)
    {
        putU64(std::bit_cast<std::uint64_t>(v));
    }

    /** Length-prefixed byte string. */
    void
    putString(const std::string &s)
    {
        putU64(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    /**
     * Section marker: a tagged boundary between component payloads.
     * Readers consume it with expectSection(), so a component that
     * writes more or fewer bytes than its loader reads fails loudly at
     * the next boundary instead of corrupting every later component.
     */
    void
    beginSection(const std::string &tag)
    {
        putU32(kSectionMagic);
        putString(tag);
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::size_t size() const { return bytes_.size(); }

  private:
    static constexpr std::uint32_t kSectionMagic = 0x7ac5Ec10u;

    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked reader over a checkpoint payload. */
class SerialReader
{
  public:
    SerialReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit SerialReader(const std::vector<std::uint8_t> &bytes)
        : SerialReader(bytes.data(), bytes.size())
    {}

    std::uint8_t
    getU8()
    {
        need(1);
        return data_[pos_++];
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

    std::int64_t getI64() { return static_cast<std::int64_t>(getU64()); }

    bool getBool() { return getU8() != 0; }

    double getDouble() { return std::bit_cast<double>(getU64()); }

    std::string
    getString()
    {
        const std::uint64_t n = getU64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Consume a section marker; throws if the next bytes are not the
     *  marker for @p tag (a component save/load size mismatch). */
    void
    expectSection(const std::string &tag)
    {
        std::uint32_t magic = 0;
        std::string got;
        bool ok = remaining() >= 4;
        if (ok) {
            magic = getU32();
            ok = magic == kSectionMagic;
        }
        if (ok)
            got = getString();
        if (!ok || got != tag)
            throw std::runtime_error(
                "checkpoint: expected section '" + tag + "'" +
                (ok ? ", found '" + got + "'"
                    : " but the stream is misaligned") +
                " — component save/load mismatch or corrupt file");
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    static constexpr std::uint32_t kSectionMagic = 0x7ac5Ec10u;

    void
    need(std::uint64_t n) const
    {
        if (n > size_ - pos_)
            throw std::runtime_error(
                "checkpoint: truncated stream (need " + std::to_string(n) +
                " bytes, have " + std::to_string(size_ - pos_) + ")");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace tacsim

#endif // TACSIM_COMMON_SERIALIZE_HH
