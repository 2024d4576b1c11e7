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
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace tacsim;

    Benchmark bench = Benchmark::pr;
    if (argc > 1) {
        for (Benchmark b : kAllBenchmarks)
            if (benchmarkName(b) == argv[1])
                bench = b;
    }

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
    std::vector<ReportRow> rows;
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
            rows.push_back({key, benchmarkName(bench), r.ipc,
                            std::nan(""), "IPC"});
        }
    }
    sweep.writeJsonFromEnv("policy_explorer", rows);
    return 0;
}
