#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono> // tacsim-lint: allow(banned-include) wall-clock is reporting-only here (per-point wallMs); nothing simulated reads it
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/json.hh"
#include "serve/point_key.hh"
#include "sim/topology.hh"

namespace tacsim {

namespace {

/** NaN-safe number formatting: JSON has no NaN, emit null. */
std::string
jsonNumber(double v)
{
    if (std::isnan(v) || std::isinf(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/**
 * Canonical hash of a point, or "" when it cannot be computed (e.g. a
 * "trace:<path>" spec whose file is missing). An empty hash disables
 * dedup for the job; execution still runs and captures the real error,
 * preserving the runner's per-job failure reporting.
 */
std::string
tryPointKey(const SystemConfig &cfg, const std::vector<std::string> &specs,
            std::uint64_t instructions, std::uint64_t warmup)
{
    try {
        return serve::pointKey(cfg, specs, instructions, warmup);
    } catch (const std::exception &) {
        return "";
    }
}

} // namespace

SweepRunner::SweepRunner(unsigned jobs)
    : threads_(jobs ? jobs : defaultJobs())
{}

unsigned
SweepRunner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        envCount("TACSIM_JOBS", hw ? hw : 1,
                 std::numeric_limits<unsigned>::max()));
}

std::size_t
SweepRunner::addJob(Job job)
{
    auto it = index_.find(job.key);
    if (it != index_.end()) {
        // Same name must mean the same simulation point. The old memo
        // keyed on the name alone, so a key reused for a different
        // config silently returned the first registration's numbers —
        // exactly the wrong-result class of bug the canonical hash
        // exists to prevent.
        const Job &existing = jobs_[it->second];
        if (!job.pointKey.empty() && !existing.pointKey.empty() &&
            job.pointKey != existing.pointKey)
            throw std::runtime_error(
                "sweep key '" + job.key +
                "' re-registered for a different simulation point");
        return it->second;
    }
    if (!job.pointKey.empty()) {
        auto hit = hashIndex_.find(job.pointKey);
        if (hit != hashIndex_.end()) {
            // Identical point under a new name: alias instead of
            // simulating twice.
            index_.emplace(job.key, hit->second);
            return hit->second;
        }
    }
    const std::size_t idx = jobs_.size();
    index_.emplace(job.key, idx);
    if (!job.pointKey.empty())
        hashIndex_.emplace(job.pointKey, idx);
    jobs_.push_back(std::move(job));
    return idx;
}

std::size_t
SweepRunner::add(const std::string &key, const SystemConfig &cfg,
                 std::vector<std::string> specs, std::uint64_t instructions,
                 std::uint64_t warmup)
{
    Job job;
    job.key = key;
    // Resolve the budgets now so the JSON metadata records what actually
    // ran (runSpecMix would apply the same defaults internally).
    job.instructions = instructions ? instructions : defaultInstructions();
    job.warmup = warmup ? warmup : defaultWarmup();
    job.seed = cfg.seed;
    job.topology = dumpTopologySpec(topologyOf(cfg));
    job.pointKey = tryPointKey(cfg, specs, job.instructions, job.warmup);
    // Obs paths expand with the sweep key, not the benchmark label: keys
    // are unique per point (a baseline/proposed pair shares a label), so
    // concurrent points under TACSIM_JOBS never collide on a file.
    job.fn = [cfg = configForPoint(cfg, key), specs = std::move(specs),
              instr = job.instructions, warm = job.warmup] {
        return runSpecMix(cfg, specs, instr, warm);
    };
    return addJob(std::move(job));
}

std::size_t
SweepRunner::addCustom(const std::string &key,
                       std::function<RunResult()> fn)
{
    Job job;
    job.key = key;
    job.fn = std::move(fn);
    return addJob(std::move(job));
}

void
SweepRunner::execute(Job &job)
{
    SweepOutcome o;
    o.key = job.key;
    o.pointKey = job.pointKey;
    o.topology = job.topology;
    o.instructions = job.instructions;
    o.warmup = job.warmup;
    o.seed = job.seed;

    // tacsim-lint: allow(nondeterminism-hazard) measures host wall time for the report's wallMs field; never feeds simulation state
    const auto t0 = std::chrono::steady_clock::now();
    try {
        o.result = job.fn();
        o.ok = true;
        o.benchmark = o.result.benchmark;
    } catch (const std::exception &e) {
        o.error = e.what();
    } catch (...) {
        o.error = "unknown exception";
    }
    o.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0) // tacsim-lint: allow(nondeterminism-hazard) reporting-only wall time (see t0 above)
                   .count();

    std::lock_guard<std::mutex> lk(mutex_);
    job.done = true;
    results_[job.key] = std::move(o);
}

void
SweepRunner::run()
{
    std::vector<std::size_t> todo;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            if (!jobs_[i].done)
                todo.push_back(i);
    }
    if (todo.empty())
        return;

    const std::size_t workers =
        std::min<std::size_t>(threads_, todo.size());
    if (workers <= 1) {
        for (std::size_t idx : todo)
            execute(jobs_[idx]);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([this, &todo, &next] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= todo.size())
                    return;
                execute(jobs_[todo[i]]);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

const RunResult &
SweepRunner::result(const std::string &key) const
{
    const SweepOutcome *o = outcome(key);
    if (!o)
        throw std::runtime_error(index_.count(key)
                                     ? "sweep point '" + key +
                                           "' has not run yet"
                                     : "unknown sweep point '" + key + "'");
    if (!o->ok)
        throw std::runtime_error("sweep point '" + key +
                                 "' failed: " + o->error);
    return o->result;
}

const SweepOutcome *
SweepRunner::outcome(const std::string &key) const
{
    auto idx = index_.find(key);
    if (idx == index_.end())
        return nullptr;
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = results_.find(jobs_[idx->second].key);
    return it == results_.end() ? nullptr : &it->second;
}

std::vector<const SweepOutcome *>
SweepRunner::outcomes() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<const SweepOutcome *> out;
    out.reserve(jobs_.size());
    for (const Job &j : jobs_) {
        auto it = results_.find(j.key);
        if (it != results_.end())
            out.push_back(&it->second);
    }
    return out;
}

bool
SweepRunner::writeJson(const std::string &path, const std::string &title,
                       const std::vector<ReportRow> &rows) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"tacsim-sweep-v1\",\n");
    std::fprintf(f, "  \"title\": %s,\n", serve::jsonQuote(title).c_str());
    std::fprintf(f, "  \"jobs\": %u,\n", threads_);
    std::fprintf(f, "  \"points\": %zu,\n", jobs_.size());

    std::fprintf(f, "  \"rows\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ReportRow &r = rows[i];
        std::fprintf(f,
                     "%s\n    {\"series\": %s, \"label\": %s, "
                     "\"measured\": %s, \"paper\": %s, \"unit\": %s}",
                     i ? "," : "", serve::jsonQuote(r.series).c_str(),
                     serve::jsonQuote(r.label).c_str(),
                     jsonNumber(r.measured).c_str(),
                     jsonNumber(r.paper).c_str(),
                     serve::jsonQuote(r.unit).c_str());
    }
    std::fprintf(f, "\n  ],\n");

    std::fprintf(f, "  \"runs\": [");
    const auto all = outcomes();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SweepOutcome &o = *all[i];
        const std::string err =
            o.ok ? "null" : serve::jsonQuote(o.error);
        // "cached" stays in the tacsim-sweep-v1 row for its readers; every
        // point is simulated, so it is always false.
        std::fprintf(
            f,
            "%s\n    {\"key\": %s, \"point_key\": %s, "
            "\"benchmark\": %s, "
            "\"topology\": %s, "
            "\"instructions\": %llu, \"warmup\": %llu, \"seed\": %llu, "
            "\"ok\": %s, \"cached\": false, \"wall_ms\": %s, "
            "\"cycles\": %llu, "
            "\"ipc\": %s, \"error\": %s}",
            i ? "," : "", serve::jsonQuote(o.key).c_str(),
            serve::jsonQuote(o.pointKey).c_str(),
            serve::jsonQuote(o.benchmark).c_str(),
            serve::jsonQuote(o.topology).c_str(),
            static_cast<unsigned long long>(o.instructions),
            static_cast<unsigned long long>(o.warmup),
            static_cast<unsigned long long>(o.seed),
            o.ok ? "true" : "false",
            jsonNumber(o.wallMs).c_str(),
            static_cast<unsigned long long>(o.ok ? o.result.cycles : 0),
            jsonNumber(o.ok ? o.result.ipc : 0.0).c_str(),
            err.c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");

    const bool ok = std::fclose(f) == 0;
    return ok;
}

bool
SweepRunner::writeJsonFromEnv(const std::string &title,
                              const std::vector<ReportRow> &rows) const
{
    const char *path = std::getenv("TACSIM_JSON_OUT");
    if (!path || !*path)
        return false;
    const bool ok = writeJson(path, title, rows);
    if (ok)
        std::fprintf(stderr, "tacsim: JSON report written to %s\n", path);
    else
        std::fprintf(stderr, "tacsim: failed to write JSON report to %s\n",
                     path);
    return ok;
}

} // namespace tacsim
