#include "sim/checkpoint.hh"

#include <array>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/serialize.hh"
#include "sim/system.hh"
#include "trace/format.hh"

namespace tacsim {

namespace {

constexpr std::array<unsigned char, 8> kCkptMagic = {'T', 'A', 'C', 'C',
                                                     'K', 'P', 'T', '1'};

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
writeAll(std::FILE *f, const void *data, std::size_t n,
         const std::string &path)
{
    if (n != 0 && std::fwrite(data, 1, n, f) != n)
        throw std::runtime_error("checkpoint: short write to " + path);
}

void
readAll(std::FILE *f, void *data, std::size_t n, const std::string &path)
{
    if (n != 0 && std::fread(data, 1, n, f) != n)
        throw std::runtime_error("checkpoint: " + path +
                                 " is truncated");
}

void
putU32le(unsigned char out[4], std::uint32_t v)
{
    out[0] = static_cast<unsigned char>(v);
    out[1] = static_cast<unsigned char>(v >> 8);
    out[2] = static_cast<unsigned char>(v >> 16);
    out[3] = static_cast<unsigned char>(v >> 24);
}

void
putU64le(unsigned char out[8], std::uint64_t v)
{
    putU32le(out, static_cast<std::uint32_t>(v));
    putU32le(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
getU32le(const unsigned char in[4])
{
    return std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
        (std::uint32_t{in[2]} << 16) | (std::uint32_t{in[3]} << 24);
}

std::uint64_t
getU64le(const unsigned char in[8])
{
    return std::uint64_t{getU32le(in)} |
        (std::uint64_t{getU32le(in + 4)} << 32);
}

} // namespace

void
saveCheckpoint(const std::string &path, System &sys,
               const std::string &key)
{
    sys.quiesce();

    SerialWriter w;
    sys.saveState(w);

    std::uint32_t crc = 0;
    crc = trace::crc32(crc, key.data(), key.size());
    crc = trace::crc32(crc, w.bytes().data(), w.bytes().size());

    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        throw std::runtime_error("checkpoint: cannot open " + path +
                                 " for writing");

    writeAll(f.get(), kCkptMagic.data(), kCkptMagic.size(), path);
    unsigned char u32buf[4], u64buf[8];
    putU32le(u32buf, kCheckpointVersion);
    writeAll(f.get(), u32buf, sizeof(u32buf), path);
    putU64le(u64buf, key.size());
    writeAll(f.get(), u64buf, sizeof(u64buf), path);
    writeAll(f.get(), key.data(), key.size(), path);
    putU64le(u64buf, w.size());
    writeAll(f.get(), u64buf, sizeof(u64buf), path);
    writeAll(f.get(), w.bytes().data(), w.size(), path);
    putU32le(u32buf, crc);
    writeAll(f.get(), u32buf, sizeof(u32buf), path);

    if (std::fflush(f.get()) != 0)
        throw std::runtime_error("checkpoint: flush failed for " + path);
}

void
loadCheckpoint(const std::string &path, System &sys,
               const std::string &key)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        throw std::runtime_error("checkpoint: cannot open " + path);

    std::array<unsigned char, 8> magic{};
    readAll(f.get(), magic.data(), magic.size(), path);
    if (magic != kCkptMagic)
        throw std::runtime_error("checkpoint: " + path +
                                 " is not a tacsim checkpoint");

    unsigned char u32buf[4], u64buf[8];
    readAll(f.get(), u32buf, sizeof(u32buf), path);
    const std::uint32_t version = getU32le(u32buf);
    if (version != kCheckpointVersion)
        throw std::runtime_error(
            "checkpoint: " + path + " has unsupported version " +
            std::to_string(version));

    readAll(f.get(), u64buf, sizeof(u64buf), path);
    const std::uint64_t keyLen = getU64le(u64buf);
    // Sanity cap: a point key is 64 hex chars. A corrupt length field
    // must not drive a multi-GiB allocation.
    if (keyLen > 1024)
        throw std::runtime_error("checkpoint: " + path +
                                 " has an implausible key length");
    std::string savedKey(static_cast<std::size_t>(keyLen), '\0');
    readAll(f.get(), savedKey.data(), savedKey.size(), path);

    readAll(f.get(), u64buf, sizeof(u64buf), path);
    const std::uint64_t payloadLen = getU64le(u64buf);
    if (payloadLen > (std::uint64_t{1} << 34))
        throw std::runtime_error("checkpoint: " + path +
                                 " has an implausible payload length");
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(payloadLen));
    readAll(f.get(), payload.data(), payload.size(), path);

    readAll(f.get(), u32buf, sizeof(u32buf), path);
    const std::uint32_t storedCrc = getU32le(u32buf);
    std::uint32_t crc = 0;
    crc = trace::crc32(crc, savedKey.data(), savedKey.size());
    crc = trace::crc32(crc, payload.data(), payload.size());
    if (crc != storedCrc)
        throw std::runtime_error("checkpoint: " + path +
                                 " failed CRC verification");

    if (savedKey != key)
        throw std::runtime_error(
            "checkpoint: " + path +
            " was saved from a different point (config, workloads or "
            "warm-up budget); restore it into the point that saved it");

    SerialReader r(payload);
    sys.loadState(r);
    if (!r.atEnd())
        throw std::runtime_error(
            "checkpoint: " + path + " has " +
            std::to_string(r.remaining()) +
            " trailing payload bytes — save/load mismatch");
}

} // namespace tacsim
