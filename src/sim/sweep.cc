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
    const std::string &key = job.outcome.key;
    const std::string &pointKey = job.outcome.pointKey;
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Same name must mean the same simulation point. The old memo
        // keyed on the name alone, so a key reused for a different
        // config silently returned the first registration's numbers —
        // exactly the wrong-result class of bug the canonical hash
        // exists to prevent.
        const std::string &existing = jobs_[it->second].outcome.pointKey;
        if (!pointKey.empty() && !existing.empty() && pointKey != existing)
            throw std::runtime_error(
                "sweep key '" + key +
                "' re-registered for a different simulation point");
        return it->second;
    }
    if (!pointKey.empty()) {
        auto hit = hashIndex_.find(pointKey);
        if (hit != hashIndex_.end()) {
            // Identical point under a new name: alias instead of
            // simulating twice.
            index_.emplace(key, hit->second);
            return hit->second;
        }
    }
    const std::size_t idx = jobs_.size();
    index_.emplace(key, idx);
    if (!pointKey.empty())
        hashIndex_.emplace(pointKey, idx);
    jobs_.push_back(std::move(job));
    return idx;
}

std::size_t
SweepRunner::add(const std::string &key, const SystemConfig &cfg,
                 std::vector<std::string> specs, std::uint64_t instructions,
                 std::uint64_t warmup)
{
    Job job;
    SweepOutcome &o = job.outcome;
    o.key = key;
    // Resolve the budgets now so the JSON metadata records what actually
    // ran (runSpecMix would apply the same defaults internally).
    o.instructions = instructions ? instructions : defaultInstructions();
    o.warmup = warmup ? warmup : defaultWarmup();
    o.seed = cfg.seed;
    o.topology = topologyText(cfg);
    o.pointKey = tryPointKey(cfg, specs, o.instructions, o.warmup);
    // Obs paths expand with the sweep key, not the benchmark label: keys
    // are unique per point (a baseline/proposed pair shares a label), so
    // concurrent points under TACSIM_JOBS never collide on a file.
    job.fn = [cfg = configForPoint(cfg, key), specs = std::move(specs),
              instr = o.instructions, warm = o.warmup] {
        return runSpecMix(cfg, specs, instr, warm);
    };
    return addJob(std::move(job));
}

std::size_t
SweepRunner::addCustom(const std::string &key,
                       std::function<RunResult()> fn)
{
    Job job;
    job.outcome.key = key;
    job.fn = std::move(fn);
    return addJob(std::move(job));
}

void
SweepRunner::execute(Job &job)
{
    SweepOutcome &o = job.outcome;
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
    job.done = true;
}

void
SweepRunner::run()
{
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (!jobs_[i].done)
            todo.push_back(i);
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
    if (idx == index_.end() || !jobs_[idx->second].done)
        return nullptr;
    return &jobs_[idx->second].outcome;
}

std::vector<const SweepOutcome *>
SweepRunner::outcomes() const
{
    std::vector<const SweepOutcome *> out;
    out.reserve(jobs_.size());
    for (const Job &j : jobs_)
        if (j.done)
            out.push_back(&j.outcome);
    return out;
}

bool
SweepRunner::writeJson(const std::string &path,
                       const std::vector<ReportTable> &tables) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"tacsim-sweep-v2\",\n");
    std::fprintf(f, "  \"jobs\": %u,\n", threads_);
    std::fprintf(f, "  \"points\": %zu,\n", jobs_.size());

    std::fprintf(f, "  \"tables\": [");
    for (std::size_t t = 0; t < tables.size(); ++t) {
        const ReportTable &table = tables[t];
        std::fprintf(f,
                     "%s\n    {\"figure\": %s, \"title\": %s, "
                     "\"rows\": [",
                     t ? "," : "", serve::jsonQuote(table.figure).c_str(),
                     serve::jsonQuote(table.title).c_str());
        for (std::size_t i = 0; i < table.rows.size(); ++i) {
            const ReportRow &r = table.rows[i];
            std::fprintf(f,
                         "%s\n      {\"series\": %s, \"label\": %s, "
                         "\"measured\": %s, \"paper\": %s, \"unit\": %s}",
                         i ? "," : "", serve::jsonQuote(r.series).c_str(),
                         serve::jsonQuote(r.label).c_str(),
                         jsonNumber(r.measured).c_str(),
                         jsonNumber(r.paper).c_str(),
                         serve::jsonQuote(r.unit).c_str());
        }
        std::fprintf(f, "\n    ]}");
    }
    std::fprintf(f, "\n  ],\n");

    std::fprintf(f, "  \"runs\": [");
    const auto all = outcomes();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SweepOutcome &o = *all[i];
        const std::string err =
            o.ok ? "null" : serve::jsonQuote(o.error);
        std::fprintf(
            f,
            "%s\n    {\"key\": %s, \"point_key\": %s, "
            "\"benchmark\": %s, "
            "\"topology\": %s, "
            "\"instructions\": %llu, \"warmup\": %llu, \"seed\": %llu, "
            "\"ok\": %s, \"wall_ms\": %s, "
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
SweepRunner::writeJsonFromEnv(const std::vector<ReportTable> &tables) const
{
    const char *path = std::getenv("TACSIM_JSON_OUT");
    if (!path || !*path)
        return true;
    const bool ok = writeJson(path, tables);
    if (ok)
        std::fprintf(stderr, "tacsim: JSON report written to %s\n", path);
    else
        std::fprintf(stderr, "tacsim: failed to write JSON report to %s\n",
                     path);
    return ok;
}

} // namespace tacsim
