/**
 * @file
 * Host-time span recorder written as Chrome-trace JSON (loadable in
 * Perfetto or chrome://tracing). The benchmark wraps its own calls into
 * the simulator with these spans; nothing inside the simulator is
 * instrumented.
 */

#ifndef PERFBENCH_SPAN_TRACE_HH
#define PERFBENCH_SPAN_TRACE_HH

#include <chrono>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU seconds the calling thread has run so far. On a paravirtualised
 *  guest this excludes the time the hypervisor gave its CPU to others. */
inline double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

class SpanTrace
{
  public:
    SpanTrace() : origin_(Clock::now()) {}

    /** Record a complete span [begin, end) named @p name in @p cat on
     *  track @p track. */
    void add(std::string name, std::string cat, std::string track,
             Clock::time_point begin, Clock::time_point end);

    /** Summed duration (seconds) of the spans named @p name. */
    double total(const std::string &name) const;

    std::size_t size() const { return spans_.size(); }

    /** Write {"traceEvents": [...]} to @p path; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name, cat, track;
        double beginUs, durUs;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HH
