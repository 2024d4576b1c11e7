#include "span_trace.hh"

#include <cstdio>
#include <map>

namespace perfbench {

void
SpanTrace::add(std::string name, std::string cat, std::string track,
               Clock::time_point begin, Clock::time_point end)
{
    using us = std::chrono::duration<double, std::micro>;
    spans_.push_back({std::move(name), std::move(cat), std::move(track),
                      us(begin - origin_).count(), us(end - begin).count()});
}

double
SpanTrace::total(const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.durUs;
    return sum / 1e6;
}

bool
SpanTrace::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // One Chrome-trace thread id per track, named by metadata events.
    std::map<std::string, int> tids;
    for (const Span &s : spans_)
        tids.emplace(s.track, static_cast<int>(tids.size()) + 1);
    std::fprintf(f, "{\"traceEvents\": [");
    bool first = true;
    for (const auto &[track, tid] : tids) {
        std::fprintf(f,
                     "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": %d, \"args\": {\"name\": "
                     "\"%s\"}}",
                     first ? "" : ",", tid, track.c_str());
        first = false;
    }
    for (const Span &s : spans_) {
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                     "\"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                     "\"dur\": %.3f}",
                     s.name.c_str(), s.cat.c_str(), tids.at(s.track),
                     s.beginUs, s.durUs);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
