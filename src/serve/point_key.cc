#include "serve/point_key.hh"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "sim/config.hh"
#include "sim/runner.hh"

namespace tacsim {
namespace serve {

namespace {

/** 128-bit FNV-1a, fed incrementally so a trace file hashes as a stream
 *  in fixed memory. */
class Fnv1a128
{
    using U128 = unsigned __int128;

  public:
    void
    update(const void *data, std::size_t n)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= bytes[i];
            h_ *= kPrime;
        }
    }

    /** The digest as 32 lowercase hex chars. */
    std::string
    hex() const
    {
        static const char kHex[] = "0123456789abcdef";
        std::string out(32, '0');
        U128 v = h_;
        for (std::size_t i = out.size(); i-- > 0; v >>= 4)
            out[i] = kHex[static_cast<unsigned>(v & 0xf)];
        return out;
    }

  private:
    static constexpr U128 kPrime = (U128{1} << 88) | 0x13b;
    U128 h_ = (U128{0x6c62272e07bb0142} << 64) | 0x62b821756295c58d;
};

/** Digest of a file's bytes. Throws std::runtime_error if the file
 *  cannot be read. */
std::string
fileDigest(const std::string &path)
{
    struct FileCloser
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };
    std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (!f)
        throw std::runtime_error("point key: cannot open " + path);
    Fnv1a128 h;
    unsigned char chunk[1 << 16];
    for (;;) {
        const std::size_t n = std::fread(chunk, 1, sizeof(chunk), f.get());
        h.update(chunk, n);
        if (n < sizeof(chunk)) {
            if (std::ferror(f.get()))
                throw std::runtime_error("point key: read error on " +
                                         path);
            break;
        }
    }
    return h.hex();
}

/** Canonical one-line form of a workload spec: trace specs become
 *  content digests, everything else (benchmark names) passes through. */
std::string
canonicalSpec(const std::string &spec)
{
    if (spec.rfind("trace:", 0) == 0)
        return "trace-fnv1a128:" + fileDigest(spec.substr(6));
    return spec;
}

} // namespace

std::string
pointKey(const SystemConfig &cfg, const std::vector<std::string> &specs,
         std::uint64_t instructions, std::uint64_t warmup)
{
    std::string text;
    // tacsim-lint: allow(magic-page-constant) string capacity hint, not page math
    text.reserve(4096);
    text += "tacsim-point-v1\n";
    text += canonicalConfigText(cfg);
    text += "threads " + std::to_string(specs.size()) + '\n';
    for (const std::string &s : specs)
        text += "spec " + canonicalSpec(s) + '\n';
    text += "instructions " +
        std::to_string(instructions ? instructions : defaultInstructions()) +
        '\n';
    text += "warmup " +
        std::to_string(warmup ? warmup : defaultWarmup()) + '\n';
    Fnv1a128 h;
    h.update(text.data(), text.size());
    return h.hex();
}

} // namespace serve
} // namespace tacsim
