#include "serve/point_key.hh"

#include "serve/sha256.hh"
#include "sim/config.hh"
#include "sim/runner.hh"

namespace tacsim {
namespace serve {

namespace {

/** Canonical one-line form of a workload spec: trace specs become
 *  content digests, everything else (benchmark names) passes through. */
std::string
canonicalSpec(const std::string &spec)
{
    if (spec.rfind("trace:", 0) == 0)
        return "trace-sha256:" + sha256FileHex(spec.substr(6));
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

} // namespace serve
} // namespace tacsim
