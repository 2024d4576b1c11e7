#include "sim/checkpoint.hh"

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "common/serialize.hh"
#include "sim/system.hh"

namespace tacsim {

namespace {

constexpr std::string_view kCkptMagic = "TACCKPT1";

std::uint32_t
crcOf(std::string_view key, std::string_view payload)
{
    return crc32(crc32(0, key.data(), key.size()), payload.data(),
                 payload.size());
}

} // namespace

void
saveCheckpoint(const std::string &path, System &sys,
               const std::string &key)
{
    sys.quiesce();

    SerialWriter payload;
    StateArchive ar(payload);
    sys.state(ar);

    SerialWriter file;
    file.putBytes(kCkptMagic);
    file.putU32(kCheckpointVersion);
    file.putString(key);
    file.putString(payload.bytes());
    file.putU32(crcOf(key, payload.bytes()));

    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("checkpoint: cannot open " + path +
                                 " for writing");
    out.write(file.bytes().data(),
              static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out)
        throw std::runtime_error("checkpoint: short write to " + path);
}

void
loadCheckpoint(const std::string &path, System &sys,
               const std::string &key)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("checkpoint: cannot open " + path);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());

    const std::string_view all(bytes);
    if (!all.starts_with(kCkptMagic))
        throw std::runtime_error("checkpoint: " + path +
                                 " is not a tacsim checkpoint");
    // Every length below is checked against the bytes present, so a
    // corrupt length field cannot drive an allocation.
    SerialReader file(all.substr(kCkptMagic.size()));
    const std::uint32_t version = file.getU32();
    if (version != kCheckpointVersion)
        throw std::runtime_error(
            "checkpoint: " + path + " has unsupported version " +
            std::to_string(version));
    const std::string_view savedKey = file.getString();
    const std::string_view payload = file.getString();
    if (file.getU32() != crcOf(savedKey, payload))
        throw std::runtime_error("checkpoint: " + path +
                                 " failed CRC verification");

    if (savedKey != key)
        throw std::runtime_error(
            "checkpoint: " + path +
            " was saved from a different point (config, workloads or "
            "warm-up budget); restore it into the point that saved it");

    SerialReader r(payload);
    StateArchive ar(r);
    sys.state(ar);
    if (!r.atEnd())
        throw std::runtime_error(
            "checkpoint: " + path + " has " +
            std::to_string(r.remaining()) +
            " trailing payload bytes — save/load mismatch");
}

} // namespace tacsim
