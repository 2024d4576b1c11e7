#include "obs/timeseries.hh"

#include <stdexcept>

#include "serve/json.hh"

namespace tacsim {
namespace obs {

Sampler::Sampler(const Registry &registry, std::string path,
                 std::uint64_t interval, const std::string &label)
    : registry_(registry), path_(std::move(path)),
      interval_(interval ? interval : 1), next_(interval_)
{
    TACSIM_CHECK(!path_.empty() && "sampler needs an output path");
    file_ = std::fopen(path_.c_str(), "w");
    if (!file_)
        throw std::runtime_error("obs: cannot write timeseries file: " +
                                 path_);

    std::fprintf(file_,
                 "{\"schema\":\"tacsim-timeseries-v1\","
                 "\"label\":%s,\"interval\":%llu,\"columns\":[",
                 serve::jsonQuote(label).c_str(),
                 static_cast<unsigned long long>(interval_));
    const std::vector<std::string> cols = registry_.columns();
    for (std::size_t i = 0; i < cols.size(); ++i)
        std::fprintf(file_, "%s%s", i ? "," : "",
                     serve::jsonQuote(cols[i]).c_str());
    std::fprintf(file_, "]}\n");
}

Sampler::~Sampler()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
Sampler::writeSample(std::uint64_t instructions, Cycle cycle)
{
    registry_.sampleInto(scratch_);
    std::fprintf(file_, "{\"i\":%llu,\"c\":%llu,\"v\":[",
                 static_cast<unsigned long long>(instructions),
                 static_cast<unsigned long long>(cycle));
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
        const Registry::Value &v = scratch_[i];
        if (v.isInt)
            std::fprintf(file_, "%s%llu", i ? "," : "",
                         static_cast<unsigned long long>(v.u));
        else
            std::fprintf(file_, "%s%.12g", i ? "," : "", v.d);
    }
    std::fprintf(file_, "]}\n");
    ++samples_;
    lastSampledAt_ = instructions;
}

void
Sampler::sample(std::uint64_t instructions, Cycle cycle)
{
    if (!file_)
        return;
    writeSample(instructions, cycle);
    // Advance past the current boundary even when a burst of retires
    // overshot several intervals at once.
    while (next_ <= instructions)
        next_ += interval_;
}

void
Sampler::markReset(std::uint64_t instructions, Cycle cycle)
{
    if (!file_)
        return;
    std::fprintf(file_, "{\"event\":\"reset\",\"i\":%llu,\"c\":%llu}\n",
                 static_cast<unsigned long long>(instructions),
                 static_cast<unsigned long long>(cycle));
    // The instruction counter restarts at zero after a stats reset, so
    // the sampling boundary rewinds with it.
    next_ = interval_;
    lastSampledAt_ = ~std::uint64_t{0};
}

void
Sampler::finish(std::uint64_t instructions, Cycle cycle)
{
    if (!file_)
        return;
    if (instructions != lastSampledAt_)
        writeSample(instructions, cycle);
    std::fclose(file_);
    file_ = nullptr;
}

} // namespace obs
} // namespace tacsim
