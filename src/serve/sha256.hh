/**
 * @file
 * Dependency-free SHA-256 (FIPS 180-4) for content addressing.
 *
 * Point keys (serve/point_key.hh) are a cryptographic digest of
 * everything that determines a simulation's outcome. CRC-32, the repo's
 * integrity check for trace files, is fine for detecting
 * corruption but far too collision-prone to *identify* by: the sweep
 * memo aliases points with equal keys, so two different points that
 * collided would silently share one result. SHA-256 makes that
 * practically impossible.
 *
 * Incremental interface (init/update/final) so large trace files hash
 * in fixed memory; one-shot helpers cover the common case.
 */

#ifndef TACSIM_SERVE_SHA256_HH
#define TACSIM_SERVE_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace tacsim {
namespace serve {

class Sha256
{
  public:
    Sha256() { reset(); }

    void reset();
    void update(const void *data, std::size_t n);

    /** Finalize and return the 32-byte digest. The object must be
     *  reset() before further use. */
    std::array<std::uint8_t, 32> digest();

    /** Finalize and return the digest as 64 lowercase hex chars. */
    std::string hexDigest();

  private:
    void processBlock(const std::uint8_t *block);

    std::array<std::uint32_t, 8> h_;
    std::array<std::uint8_t, 64> buf_;
    std::size_t bufLen_ = 0;
    std::uint64_t totalBytes_ = 0;
};

/** One-shot digest of a byte buffer, as 64 lowercase hex chars. */
std::string sha256Hex(const void *data, std::size_t n);
std::string sha256Hex(const std::string &s);

/**
 * Digest of a file's contents (streamed, fixed memory), as 64 lowercase
 * hex chars. Throws std::runtime_error if the file cannot be read.
 */
std::string sha256FileHex(const std::string &path);

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_SHA256_HH
