#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cstdio>

#include "serve/json.hh"

namespace tacsim {
namespace obs {

ChromeTracer::ChromeTracer(std::string path) : path_(std::move(path))
{
    TACSIM_CHECK(!path_.empty() && "tracer needs an output path");
}

ChromeTracer::~ChromeTracer()
{
    finish();
}

std::uint32_t
ChromeTracer::addTrack(const std::string &name)
{
    tracks_.push_back(name);
    return static_cast<std::uint32_t>(tracks_.size() - 1);
}

std::uint32_t
ChromeTracer::intern(const std::string &name)
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<std::uint32_t>(i);
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

void
ChromeTracer::push(const Event &e)
{
    if (buffer_.size() >= kMaxEvents) {
        ++dropped_;
        return;
    }
    buffer_.push_back(e);
}

void
ChromeTracer::span(std::uint32_t track, std::uint32_t nameId, Cycle start,
                   Cycle end)
{
    TACSIM_DCHECK(end >= start && "span must not end before it starts");
    Event e{};
    e.track = track;
    e.nameId = nameId;
    e.phase = 'X';
    e.ts = start;
    e.dur = end - start;
    push(e);
}

void
ChromeTracer::counter(std::uint32_t track, std::uint32_t nameId, Cycle ts,
                      double value)
{
    Event e{};
    e.track = track;
    e.nameId = nameId;
    e.phase = 'C';
    e.ts = ts;
    e.value = value;
    push(e);
}

void
ChromeTracer::instant(std::uint32_t track, std::uint32_t nameId, Cycle ts)
{
    Event e{};
    e.track = track;
    e.nameId = nameId;
    e.phase = 'i';
    e.ts = ts;
    push(e);
}

bool
ChromeTracer::finish()
{
    if (finished_)
        return true;
    finished_ = true;

    // Perfetto wants non-decreasing timestamps within a track; events
    // are emitted in event-queue order, which interleaves tracks but is
    // already time-ordered per component. Sorting by (track, ts) is a
    // stable no-op per track and groups rows for readability.
    std::stable_sort(buffer_.begin(), buffer_.end(),
                     [](const Event &a, const Event &b) {
                         if (a.track != b.track)
                             return a.track < b.track;
                         return a.ts < b.ts;
                     });

    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "obs: cannot write chrome trace: %s\n",
                     path_.c_str());
        return false;
    }

    std::fprintf(f, "{\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":"
                 "\"process_name\",\"args\":{\"name\":\"tacsim\"}}");
    for (std::size_t t = 0; t < tracks_.size(); ++t)
        std::fprintf(f,
                     ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%zu,\"name\":"
                     "\"thread_name\",\"args\":{\"name\":%s}}",
                     t, serve::jsonQuote(tracks_[t]).c_str());
    for (const Event &e : buffer_) {
        const std::string quoted = serve::jsonQuote(names_[e.nameId]);
        const char *name = quoted.c_str();
        switch (e.phase) {
          case 'X':
            std::fprintf(f,
                         ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                         "\"ts\":%llu,\"dur\":%llu,\"name\":%s,"
                         "\"cat\":\"tacsim\"}",
                         e.track,
                         static_cast<unsigned long long>(e.ts),
                         static_cast<unsigned long long>(e.dur), name);
            break;
          case 'C':
            std::fprintf(f,
                         ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":%u,"
                         "\"ts\":%llu,\"name\":%s,"
                         "\"args\":{\"value\":%.12g}}",
                         e.track,
                         static_cast<unsigned long long>(e.ts), name,
                         e.value);
            break;
          default:
            std::fprintf(f,
                         ",\n{\"ph\":\"i\",\"pid\":0,\"tid\":%u,"
                         "\"ts\":%llu,\"name\":%s,\"s\":\"t\","
                         "\"cat\":\"tacsim\"}",
                         e.track,
                         static_cast<unsigned long long>(e.ts), name);
            break;
        }
    }
    std::fprintf(f,
                 "\n],\n\"displayTimeUnit\":\"ms\",\n"
                 "\"tacsimDroppedEvents\":%llu\n}\n",
                 static_cast<unsigned long long>(dropped_));
    const bool ok = std::fclose(f) == 0;
    if (dropped_)
        std::fprintf(stderr,
                     "obs: chrome trace %s dropped %llu events past the "
                     "%zu-event buffer cap\n",
                     path_.c_str(),
                     static_cast<unsigned long long>(dropped_),
                     kMaxEvents);
    buffer_.clear();
    buffer_.shrink_to_fit();
    return ok;
}

} // namespace obs
} // namespace tacsim
