/**
 * @file
 * Policy-explorer example: sweeps every replacement-policy combination
 * (L2C x LLC) on one benchmark and prints IPC plus the translation and
 * replay MPKIs, showing why the paper picks DRRIP@L2C + SHiP@LLC as the
 * strong baseline — and what the T-variants change.
 *
 * The 14 configurations run in parallel on the SweepRunner (TACSIM_JOBS
 * workers); TACSIM_JSON_OUT=<path> writes the table as a JSON report.
 *
 * Usage: example_policy_explorer [benchmark]
 * (default pr; a name that is not a benchmark, or a second argument,
 * exits 2).
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "sim/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace tacsim;

    const std::optional<Benchmark> chosen =
        argc > 1 ? benchmarkFromName(argv[1]) : Benchmark::pr;
    if (!chosen || argc > 2) {
        std::string names;
        for (Benchmark b : kAllBenchmarks)
            names += " " + benchmarkName(b);
        std::fprintf(stderr, "usage: %s [benchmark], benchmark one of:%s\n",
                     argv[0], names.c_str());
        return 2;
    }
    const Benchmark bench = *chosen;

    struct LlcChoice
    {
        const char *name;
        PolicyKind kind;
        ReplOpts opts;
    };
    const LlcChoice llcs[] = {
        {"LRU", PolicyKind::LRU, {}},
        {"SRRIP", PolicyKind::SRRIP, {}},
        {"DRRIP", PolicyKind::DRRIP, {}},
        {"SHiP", PolicyKind::SHiP, {}},
        {"Hawkeye", PolicyKind::Hawkeye, {}},
        {"T-SHiP", PolicyKind::SHiP, {true, false, true, false}},
        {"T-Hawkeye", PolicyKind::Hawkeye, {true, false, true, false}},
    };
    const std::pair<const char *, bool> l2s[] = {
        {"DRRIP", false},
        {"T-DRRIP", true},
    };

    auto makeConfig = [](bool tdrrip, const LlcChoice &llc) {
        SystemConfig cfg;
        if (tdrrip) {
            cfg.l2Opts.translationRrpv0 = true;
            cfg.l2Opts.replayEvictFast = true;
        }
        cfg.llcPolicy = llc.kind;
        cfg.llcOpts = llc.opts;
        return cfg;
    };

    // Phase 1: register all L2C x LLC combinations.
    SweepRunner sweep;
    for (auto [l2name, tdrrip] : l2s)
        for (const LlcChoice &llc : llcs)
            sweep.add(std::string(l2name) + "/" + llc.name,
                      makeConfig(tdrrip, llc), {benchmarkName(bench)});

    // Phase 2: execute across the pool.
    std::printf("benchmark: %s (%zu configs on %u threads)\n",
                benchmarkName(bench).c_str(), sweep.points(),
                sweep.threadCount());
    sweep.run();

    // Phase 3: report in registration order.
    std::printf("%-10s %-10s | %7s | %9s %9s %9s\n", "L2C", "LLC", "IPC",
                "LLC.ptl1", "LLC.rep", "LLC.nrep");
    ReportTable table{"policy_explorer",
                      "L2C x LLC policies on " + benchmarkName(bench), {}};
    for (auto [l2name, tdrrip] : l2s) {
        for (const LlcChoice &llc : llcs) {
            const std::string key =
                std::string(l2name) + "/" + llc.name;
            const SweepOutcome *o = sweep.outcome(key);
            if (!o->ok) {
                std::printf("%-10s %-10s | FAILED: %s\n", l2name,
                            llc.name, o->error.c_str());
                continue;
            }
            const RunResult &r = o->result;
            std::printf("%-10s %-10s | %7.3f | %9.3f %9.3f %9.3f\n",
                        l2name, llc.name, r.ipc, r.llcPtl1Mpki,
                        r.llcReplayMpki, r.llcNonReplayMpki);
            table.rows.push_back({key, benchmarkName(bench), r.ipc,
                                  std::nan(""), "IPC"});
        }
    }
    return sweep.writeJsonFromEnv({table}) ? 0 : 1;
}
