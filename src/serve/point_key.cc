#include "serve/point_key.hh"

#include <sys/stat.h>

#include <map>
#include <mutex>
#include <stdexcept>

#include "serve/sha256.hh"
#include "sim/config.hh"
#include "sim/runner.hh"

namespace tacsim {
namespace serve {

namespace {

/**
 * Digest of a trace file's bytes, memoized per (path, mtime, size).
 * Hashing a multi-MB trace on every submission would dominate a warm
 * cache hit; the (mtime, size) pair invalidates the memo when the file
 * is rewritten in place.
 */
std::string
traceFileDigest(const std::string &path)
{
    struct Stamp
    {
        std::int64_t mtime;
        std::uint64_t size;
        std::string digest;
    };
    static std::mutex mu;
    static std::map<std::string, Stamp> memo;

    struct ::stat st{};
    if (::stat(path.c_str(), &st) != 0)
        throw std::runtime_error("pointKey: cannot stat trace file " +
                                 path);
    const std::int64_t mtime = static_cast<std::int64_t>(st.st_mtime);
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = memo.find(path);
        if (it != memo.end() && it->second.mtime == mtime &&
            it->second.size == size)
            return it->second.digest;
    }

    const std::string digest = sha256FileHex(path);
    std::lock_guard<std::mutex> lock(mu);
    memo[path] = Stamp{mtime, size, digest};
    return digest;
}

/** Canonical one-line form of a workload spec: trace specs become
 *  content digests, everything else (benchmark names) passes through. */
std::string
canonicalSpec(const std::string &spec)
{
    if (spec.rfind("trace:", 0) == 0)
        return "trace-sha256:" + traceFileDigest(spec.substr(6));
    return spec;
}

std::string
digestPoint(const SystemConfig &cfg,
            const std::vector<std::string> &specs,
            std::uint64_t instructions, std::uint64_t warmup,
            bool includeInstructions)
{
    std::string text;
    // tacsim-lint: allow(magic-page-constant) string capacity hint, not page math
    text.reserve(4096);
    text += includeInstructions ? "tacsim-point-v1\n" : "tacsim-warm-v1\n";
    text += canonicalConfigText(cfg);
    text += "threads " + std::to_string(specs.size()) + '\n';
    for (const std::string &s : specs)
        text += "spec " + canonicalSpec(s) + '\n';
    if (includeInstructions)
        text += "instructions " +
            std::to_string(instructions ? instructions
                                        : defaultInstructions()) +
            '\n';
    text += "warmup " +
        std::to_string(warmup ? warmup : defaultWarmup()) + '\n';
    return sha256Hex(text);
}

} // namespace

std::string
pointKey(const SystemConfig &cfg, const std::vector<std::string> &specs,
         std::uint64_t instructions, std::uint64_t warmup)
{
    return digestPoint(cfg, specs, instructions, warmup, true);
}

std::string
warmKey(const SystemConfig &cfg, const std::vector<std::string> &specs,
        std::uint64_t warmup)
{
    return digestPoint(cfg, specs, 0, warmup, false);
}

bool
isPointKey(const std::string &s)
{
    if (s.size() != 64)
        return false;
    for (char c : s)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

} // namespace serve
} // namespace tacsim
