/**
 * @file
 * tacsim-perf: the engine-throughput harness behind BENCH_perf.json.
 *
 * Runs a fixed benchmark×config matrix (all nine Table-II benchmarks ×
 * {baseline, proposed}) at a fixed instruction budget on the PR-1 sweep
 * runner and reports, per point: wall-ms, executed events, events/sec,
 * simulated KIPS and peak RSS — plus host metadata and an aggregate
 * events/sec figure that CI's perf-smoke lane gates on (see
 * scripts/check_perf_regression.py).
 *
 * Usage:
 *   tacsim-perf [--instructions N] [--warmup N] [--out FILE] [--quick]
 *               [--trace FILE] [--sample-interval N]
 *               [--timeseries PATTERN] [--chrome-trace PATTERN]
 *
 * --quick shrinks the matrix to two benchmarks for smoke runs. --trace
 * replaces the synthetic matrix with a recorded `tacsim-trace-v1` file
 * replayed under both configs (throughput on a fixed, shareable input).
 * --timeseries / --chrome-trace enable the observability sinks on every
 * point; the patterns should contain "{key}" (expanded with the point's
 * sweep key) so points write distinct files. Points execute serially by
 * default so per-point wall times are not polluted by sibling points;
 * set TACSIM_JOBS to override.
 *
 * JSON schema "tacsim-bench-v1":
 *   { schema, title, host{cpus, compiler, os}, budget{instructions,
 *     warmup}, points[{key, benchmark, config, ok, wall_ms, events,
 *     events_per_sec, sim_kips, peak_rss_kb, cycles, ipc, error}],
 *     aggregate{wall_ms, events, events_per_sec, sim_kips} }
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/host.hh"
#include "serve/json.hh"
#include "sim/config.hh"
#include "sim/sweep.hh"
#include "trace/reader.hh"

namespace {

using namespace tacsim;

struct PerfPoint
{
    std::string key;
    std::string benchmark;
    std::string config;
};

struct Options
{
    std::uint64_t instructions = 200000;
    std::uint64_t warmup = 50000;
    std::string out = "BENCH_perf.json";
    std::string trace; ///< replay this trace instead of the matrix
    bool quick = false;

    // Observability sinks, applied to every point when non-empty.
    std::uint64_t sampleInterval = 0;
    std::string timeseries;
    std::string chromeTrace;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "tacsim-perf: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--instructions") {
            o.instructions = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--warmup") {
            o.warmup = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--out") {
            o.out = value();
        } else if (arg == "--trace") {
            o.trace = value();
        } else if (arg == "--quick") {
            o.quick = true;
        } else if (arg == "--sample-interval") {
            o.sampleInterval = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--timeseries") {
            o.timeseries = value();
        } else if (arg == "--chrome-trace") {
            o.chromeTrace = value();
        } else {
            std::fprintf(stderr,
                         "usage: tacsim-perf [--instructions N] "
                         "[--warmup N] [--out FILE] [--quick] "
                         "[--trace FILE] [--sample-interval N] "
                         "[--timeseries PATTERN] "
                         "[--chrome-trace PATTERN]\n");
            std::exit(arg == "--help" ? 0 : 2);
        }
    }
    if (o.instructions == 0 || o.warmup == 0) {
        std::fprintf(stderr, "tacsim-perf: budgets must be positive\n");
        std::exit(2);
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    // Serial by default: each point's wall time is a clean measurement.
    unsigned jobs = 1;
    if (const char *v = std::getenv("TACSIM_JOBS")) {
        const unsigned long parsed = std::strtoul(v, nullptr, 10);
        if (parsed > 0)
            jobs = static_cast<unsigned>(parsed);
    }
    SweepRunner sweep(jobs);

    SystemConfig baseline{};
    SystemConfig proposed{};
    {
        TranslationAwareOptions ta;
        ta.tempo = true;
        applyTranslationAware(proposed, ta);
    }
    for (SystemConfig *cfg : {&baseline, &proposed}) {
        cfg->obs.sampleInterval = opt.sampleInterval;
        cfg->obs.timeseriesPath = opt.timeseries;
        cfg->obs.chromeTracePath = opt.chromeTrace;
    }

    const std::pair<const char *, const SystemConfig *> configs[] = {
        {"baseline", &baseline},
        {"proposed", &proposed},
    };

    std::vector<PerfPoint> points;
    if (!opt.trace.empty()) {
        // Validate the file and pull the benchmark name up front so a
        // bad path fails fast instead of as N identical point errors.
        std::string traceName;
        try {
            trace::TraceReader reader(opt.trace);
            traceName = reader.header().name;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "tacsim-perf: %s\n", e.what());
            return 2;
        }
        for (const auto &[cfgName, cfg] : configs) {
            PerfPoint p;
            p.benchmark = traceName;
            p.config = cfgName;
            p.key = "trace/" + std::string(cfgName);
            sweep.add(p.key, *cfg, {"trace:" + opt.trace},
                      opt.instructions, opt.warmup);
            points.push_back(std::move(p));
        }
    } else {
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            if (opt.quick && name != "xalancbmk" && name != "mcf")
                continue;
            for (const auto &[cfgName, cfg] : configs) {
                PerfPoint p;
                p.benchmark = name;
                p.config = cfgName;
                p.key = name + "/" + cfgName;
                sweep.add(p.key, *cfg, {name}, opt.instructions,
                          opt.warmup);
                points.push_back(std::move(p));
            }
        }
    }

    std::fprintf(stderr,
                 "tacsim-perf: %zu points, %llu+%llu instructions, "
                 "%u job(s)\n",
                 points.size(),
                 static_cast<unsigned long long>(opt.warmup),
                 static_cast<unsigned long long>(opt.instructions),
                 jobs);
    sweep.run();

    double totalWallMs = 0;
    std::uint64_t totalEvents = 0, totalInstructions = 0;
    bool anyFailed = false;

    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "tacsim-perf: cannot write %s\n",
                     opt.out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"tacsim-bench-v1\",\n");
    std::fprintf(f, "  \"title\": \"tacsim engine throughput\",\n");
    std::fprintf(f,
                 "  \"host\": {\"cpus\": %u, \"compiler\": %s, "
                 "\"os\": %s},\n",
                 hostCpus(), serve::jsonQuote(hostCompiler()).c_str(),
                 serve::jsonQuote(hostOs()).c_str());
    std::fprintf(f,
                 "  \"budget\": {\"instructions\": %llu, "
                 "\"warmup\": %llu},\n",
                 static_cast<unsigned long long>(opt.instructions),
                 static_cast<unsigned long long>(opt.warmup));

    std::fprintf(f, "  \"points\": [");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PerfPoint &p = points[i];
        const SweepOutcome *o = sweep.outcome(p.key);
        if (!o || !o->ok) {
            anyFailed = true;
            std::fprintf(f,
                         "%s\n    {\"key\": %s, \"benchmark\": %s, "
                         "\"config\": %s, \"ok\": false, "
                         "\"error\": %s}",
                         i ? "," : "", serve::jsonQuote(p.key).c_str(),
                         serve::jsonQuote(p.benchmark).c_str(),
                         serve::jsonQuote(p.config).c_str(),
                         serve::jsonQuote(o ? o->error : "not run").c_str());
            std::fprintf(stderr, "tacsim-perf: point %s FAILED: %s\n",
                         p.key.c_str(),
                         o ? o->error.c_str() : "not run");
            continue;
        }
        const double wallSec = o->wallMs / 1000.0;
        const double evPerSec =
            wallSec > 0 ? double(o->result.events) / wallSec : 0.0;
        const std::uint64_t simInstr =
            (opt.instructions + opt.warmup); // per thread; single here
        const double kips =
            wallSec > 0 ? double(simInstr) / wallSec / 1000.0 : 0.0;
        totalWallMs += o->wallMs;
        totalEvents += o->result.events;
        totalInstructions += simInstr;
        std::fprintf(
            f,
            "%s\n    {\"key\": %s, \"benchmark\": %s, "
            "\"config\": %s, \"ok\": true, \"wall_ms\": %.3f, "
            "\"events\": %llu, \"events_per_sec\": %.1f, "
            "\"sim_kips\": %.2f, \"peak_rss_kb\": %llu, "
            "\"cycles\": %llu, \"ipc\": %.6f}",
            i ? "," : "", serve::jsonQuote(p.key).c_str(),
            serve::jsonQuote(p.benchmark).c_str(),
            serve::jsonQuote(p.config).c_str(), o->wallMs,
            static_cast<unsigned long long>(o->result.events), evPerSec,
            kips, static_cast<unsigned long long>(o->peakRssKb),
            static_cast<unsigned long long>(o->result.cycles),
            o->result.ipc);
    }
    std::fprintf(f, "\n  ],\n");

    const double totalWallSec = totalWallMs / 1000.0;
    const double aggEvPerSec =
        totalWallSec > 0 ? double(totalEvents) / totalWallSec : 0.0;
    const double aggKips = totalWallSec > 0
        ? double(totalInstructions) / totalWallSec / 1000.0
        : 0.0;
    std::fprintf(f,
                 "  \"aggregate\": {\"wall_ms\": %.3f, \"events\": "
                 "%llu, \"events_per_sec\": %.1f, \"sim_kips\": "
                 "%.2f}\n}\n",
                 totalWallMs,
                 static_cast<unsigned long long>(totalEvents),
                 aggEvPerSec, aggKips);
    const bool wrote = std::fclose(f) == 0;

    std::fprintf(stderr,
                 "tacsim-perf: %.1f s wall, %.3g events/sec aggregate, "
                 "%.1f KIPS -> %s\n",
                 totalWallSec, aggEvPerSec, aggKips, opt.out.c_str());
    return (wrote && !anyFailed) ? 0 : 1;
}
