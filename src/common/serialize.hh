/**
 * @file
 * The one little-endian codec of tacsim's two binary containers: trace
 * files (tacsim-trace-v1, trace/format.hh) and simulation checkpoints
 * (tacsim-ckpt-v2, sim/checkpoint.hh). Both encode their fixed-width
 * integers and raw byte runs through SerialWriter and SerialReader, and
 * both check their bytes with crc32(). The trace *records* keep their
 * own compact varint encoding (trace/format.hh). Also StateArchive, the
 * one pass through which every component saves and restores its state.
 *
 * The encoding is deliberately dumb: fixed-width little-endian integers
 * and length-prefixed byte strings, no varints, no alignment.
 *
 * Readers are bounds-checked: running off the end throws
 * std::runtime_error (its message begins "checkpoint:") rather than
 * reading garbage, and a length prefix is checked against the bytes
 * present before anything is allocated, so a truncated or corrupt
 * checkpoint degrades to a clean load failure. The trace code decodes
 * only buffers whose length it has already checked.
 */

#ifndef TACSIM_COMMON_SERIALIZE_HH
#define TACSIM_COMMON_SERIALIZE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/rng.hh"

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

    /**
     * Section marker: a tagged boundary between component payloads.
     * Readers consume it with expectSection(), so a component that
     * writes more or fewer bytes than its loader reads fails loudly at
     * the next boundary instead of corrupting every later component.
     */
    void
    beginSection(std::string_view tag)
    {
        putU32(kSectionMagic);
        putString(tag);
    }

    const std::string &bytes() const { return bytes_; }
    std::size_t size() const { return bytes_.size(); }

  private:
    static constexpr std::uint32_t kSectionMagic = 0x7ac5Ec10u;

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

    /** Consume a section marker; throws if the next bytes are not the
     *  marker for @p tag (a component save/load size mismatch). */
    void
    expectSection(std::string_view tag)
    {
        std::string_view got;
        bool ok = remaining() >= 4 && getU32() == kSectionMagic;
        if (ok)
            got = getString();
        if (!ok || got != tag)
            throw std::runtime_error(
                "checkpoint: expected section '" + std::string(tag) + "'" +
                (ok ? ", found '" + std::string(got) + "'"
                    : " but the stream is misaligned") +
                " — component save/load mismatch or corrupt file");
    }

    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    static constexpr std::uint32_t kSectionMagic = 0x7ac5Ec10u;

    void
    need(std::uint64_t n) const
    {
        if (n > remaining())
            throw std::runtime_error(
                "checkpoint: truncated stream (need " + std::to_string(n) +
                " bytes, have " + std::to_string(remaining()) + ")");
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

/**
 * One pass over a component's checkpoint state, in either direction.
 *
 * A component names each field once, in a `state(StateArchive &)`
 * function. Over a SerialWriter the archive saves the fields; over a
 * SerialReader it restores the same fields in the same order and
 * validates every value it reads, so the two directions cannot drift
 * apart. Encodings that are not mirror images (a sparse tree, a fixup
 * after a restore) branch on loading(). A restore that throws leaves
 * the component half-restored; the caller discards it.
 */
class StateArchive
{
  public:
    explicit StateArchive(SerialWriter &w) : w_(&w) {}
    explicit StateArchive(SerialReader &r) : r_(&r) {}

    bool loading() const { return r_ != nullptr; }

    void
    io(std::uint8_t &v)
    {
        if (r_)
            v = r_->getU8();
        else
            w_->putU8(v);
    }

    void
    io(std::uint16_t &v)
    {
        if (r_)
            v = r_->getU16();
        else
            w_->putU16(v);
    }

    void
    io(std::uint32_t &v)
    {
        if (r_)
            v = r_->getU32();
        else
            w_->putU32(v);
    }

    void
    io(std::uint64_t &v)
    {
        if (r_)
            v = r_->getU64();
        else
            w_->putU64(v);
    }

    /** Two's complement in 64 bits. */
    void
    io(std::int64_t &v)
    {
        auto u = static_cast<std::uint64_t>(v);
        io(u);
        v = static_cast<std::int64_t>(u);
    }

    /** Travels as 64 bits; a restore rejects a value an int cannot
     *  hold before narrowing it. */
    void
    io(int &v)
    {
        std::int64_t wide = v;
        io(wide);
        if (!std::in_range<int>(wide))
            fail("an int field", "is out of range");
        v = static_cast<int>(wide);
    }

    /** One byte; a restore accepts only 0 and 1. */
    void
    io(bool &v)
    {
        std::uint8_t b = v;
        io(b, 2, "a bool field");
        v = b != 0;
    }

    /** An enum (at its underlying width) or an integer (at its io()
     *  width) that lies in [0, @p count); a restore rejects any other
     *  value, naming it @p what. */
    template <typename T>
    void
    io(T &v, std::uint64_t count, const char *what)
    {
        if constexpr (std::is_enum_v<T>) {
            auto raw = static_cast<std::underlying_type_t<T>>(v);
            io(raw, count, what);
            v = static_cast<T>(raw);
        } else {
            io(v);
            if (std::cmp_less(v, 0) || std::cmp_greater_equal(v, count))
                fail(what, "is out of range");
        }
    }

    /** The generator's raw words; a restore rejects the all-zero state,
     *  which xoshiro never reaches and never leaves. */
    void
    io(Rng &rng)
    {
        std::uint64_t s[Rng::kStateWords];
        rng.state(s);
        std::uint64_t any = 0;
        for (std::uint64_t &word : s) {
            io(word);
            any |= word;
        }
        if (any == 0)
            fail("an RNG state", "is all zero");
        if (r_)
            rng.setState(s);
    }

    /** Geometry or configuration the rebuilt machine already has: a
     *  save writes @p v, a restore demands the same value. */
    template <typename T>
    void
    expect(T v, const char *what)
    {
        T got = v;
        io(got);
        if (got != v)
            fail(what, "differs from the rebuilt machine");
    }

    void
    section(std::string_view tag)
    {
        if (r_)
            r_->expectSection(tag);
        else
            w_->beginSection(tag);
    }

  private:
    [[noreturn]] static void
    fail(const char *what, const char *problem)
    {
        throw std::runtime_error(std::string("checkpoint: ") + what + " " +
                                 problem);
    }

    SerialWriter *w_ = nullptr;
    SerialReader *r_ = nullptr;
};

} // namespace tacsim

#endif // TACSIM_COMMON_SERIALIZE_HH
