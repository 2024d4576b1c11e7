#include "host_probe.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "span_trace.hh"

namespace perfbench {

namespace {

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Ordered map, sort and number formatting over 256 random keys. */
std::uint64_t
containerPass(std::uint64_t &x, int r)
{
    std::map<std::uint64_t, std::uint32_t> m;
    std::vector<std::uint64_t> v;
    for (int i = 0; i < 256; ++i) {
        const std::uint64_t k = xorshift(x);
        m[k & 0xffff] += std::uint32_t(i);
        v.push_back(k);
    }
    std::sort(v.begin(), v.end());
    for (auto it = m.begin(); it != m.end();)
        it = (it->second & 1) ? m.erase(it) : std::next(it);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", double(v[r & 255]) * 1e-9);
    return m.size() + v[128] + std::uint64_t(buf[1]);
}

/** std::function callbacks through a time-ordered queue, updating a hash
 *  table, over 128 random events. */
std::uint64_t
eventPass(std::uint64_t &x)
{
    using Event = std::pair<std::uint64_t, std::function<void()>>;
    auto later = [](const Event &a, const Event &b) {
        return a.first > b.first;
    };
    std::priority_queue<Event, std::vector<Event>, decltype(later)> q(later);
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (int i = 0; i < 128; ++i) {
        const std::uint64_t k = xorshift(x);
        q.emplace(k & 0xfff, [&table, k, i] { table[k >> 40] += i; });
    }
    while (!q.empty()) {
        q.top().second();
        q.pop();
    }
    return table.size();
}

} // namespace

double
HostProbe::run()
{
    const double t0 = threadCpuSeconds();
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (int r = 0; r < kRounds; ++r) {
        sink_ += containerPass(x, r);
        if (r % 2 == 0)
            sink_ += eventPass(x);
    }
    const double t = threadCpuSeconds() - t0;
    // Keep the result observable so the work cannot be optimised away.
    asm volatile("" : : "r"(sink_));
    return t;
}

} // namespace perfbench
