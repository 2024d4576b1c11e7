#include "obs/registry.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/types.hh"

namespace tacsim {
namespace obs {

namespace {

bool
validName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
            c == '.' || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

/** @p name without an all-digit second segment (the instance index). */
std::string
foldedName(const std::string &name)
{
    const std::size_t root = name.find('.');
    const std::size_t end = std::min(name.find('.', root + 1), name.size());
    if (root == std::string::npos || end == root + 1 ||
        name.find_first_not_of("0123456789", root + 1) < end)
        return name;
    return name.substr(0, root) + name.substr(end);
}

template <typename Map>
const typename Map::mapped_type &
named(const Map &totals, const std::string &name)
{
    if (const auto it = totals.find(name); it != totals.end())
        return it->second;
    throw std::out_of_range("no metric registered as " + name);
}

} // namespace

std::uint64_t
Totals::counter(const std::string &name) const
{
    return named(counters, name);
}

const Histogram &
Totals::histogram(const std::string &name) const
{
    return named(histograms, name);
}

void
Registry::addEntry(Entry e)
{
    TACSIM_CHECK(validName(e.name) &&
                 "metric names are non-empty [a-z0-9._-]");
    TACSIM_CHECK(names_.insert(e.name).second &&
                 "duplicate metric name registered");
    entries_.push_back(std::move(e));
}

void
Registry::addCounter(const std::string &name, const std::uint64_t *v)
{
    TACSIM_CHECK(v && "counter storage must not be null");
    Entry e;
    e.kind = Kind::Counter;
    e.name = name;
    e.counter = v;
    addEntry(std::move(e));
}

void
Registry::addGauge(const std::string &name, std::function<double()> fn)
{
    TACSIM_CHECK(fn && "gauge function must not be null");
    Entry e;
    e.kind = Kind::Gauge;
    e.name = name;
    e.gauge = std::move(fn);
    addEntry(std::move(e));
}

void
Registry::addHistogram(const std::string &name, const Histogram *h)
{
    TACSIM_CHECK(h && "histogram storage must not be null");
    Entry e;
    e.kind = Kind::Hist;
    e.name = name;
    e.hist = h;
    addEntry(std::move(e));
}

void
Registry::addResetHook(std::function<void()> hook)
{
    TACSIM_CHECK(hook && "reset hook must not be null");
    resetHooks_.push_back(std::move(hook));
}

void
Registry::resetAll()
{
    for (auto &hook : resetHooks_)
        hook();
}

std::vector<std::string>
Registry::columns() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_) {
        switch (e.kind) {
          case Kind::Counter:
          case Kind::Gauge:
            out.push_back(e.name);
            break;
          case Kind::Hist:
            out.push_back(e.name + ".count");
            out.push_back(e.name + ".mean");
            out.push_back(e.name + ".max");
            for (std::size_t i = 0; i < e.hist->buckets(); ++i)
                out.push_back(e.name + ".bucket" + std::to_string(i));
            break;
        }
    }
    return out;
}

void
Registry::sampleInto(std::vector<Value> &out) const
{
    out.clear();
    for (const Entry &e : entries_) {
        Value v;
        switch (e.kind) {
          case Kind::Counter:
            v.u = *e.counter;
            out.push_back(v);
            break;
          case Kind::Gauge:
            v.isInt = false;
            v.d = e.gauge();
            out.push_back(v);
            break;
          case Kind::Hist: {
            v.u = e.hist->count();
            out.push_back(v);
            Value mean;
            mean.isInt = false;
            mean.d = e.hist->mean();
            out.push_back(mean);
            Value mx;
            mx.u = e.hist->max();
            out.push_back(mx);
            for (std::size_t i = 0; i < e.hist->buckets(); ++i) {
                Value b;
                b.u = e.hist->bucketCount(i);
                out.push_back(b);
            }
            break;
          }
        }
    }
}

std::string
Registry::dumpText() const
{
    const std::vector<std::string> names = columns();
    std::vector<Value> vals;
    sampleInto(vals);

    std::string out;
    out.reserve(names.size() * 32);
    for (std::size_t i = 0; i < names.size(); ++i) {
        out += names[i];
        out += ' ';
        if (vals[i].isInt)
            out += std::to_string(vals[i].u);
        else
            out += formatDouble(vals[i].d);
        out += '\n';
    }
    return out;
}

std::vector<std::string>
Registry::nonZeroAfterReset() const
{
    std::vector<std::string> bad;
    for (const Entry &e : entries_) {
        switch (e.kind) {
          case Kind::Counter:
            if (*e.counter != 0)
                bad.push_back(e.name);
            break;
          case Kind::Gauge:
            break; // architectural state, exempt by design
          case Kind::Hist:
            if (e.hist->count() != 0 || e.hist->max() != 0)
                bad.push_back(e.name);
            break;
        }
    }
    return bad;
}

Totals
Registry::totals() const
{
    Totals t;
    for (const Entry &e : entries_) {
        if (e.kind == Kind::Counter) {
            t.counters[foldedName(e.name)] += *e.counter;
        } else if (e.kind == Kind::Hist) {
            const auto [it, fresh] =
                t.histograms.try_emplace(foldedName(e.name), *e.hist);
            if (!fresh)
                it->second.merge(*e.hist);
        } // a gauge is state, not a total
    }
    return t;
}

} // namespace obs
} // namespace tacsim
