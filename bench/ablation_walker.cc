/**
 * @file
 * Design-choice ablation: page-walker provisioning. Sweeps the number
 * of concurrent walkers and the PSC sizes — the substrate knobs the
 * paper's Table I fixes (4-ish walkers; PSCL5/4/3/2 = 2/4/8/32) — to
 * show the evaluation is not an artifact of an over- or under-
 * provisioned MMU.
 */

#include <array>

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::mcf, Benchmark::pr,
                                Benchmark::cc};

    // --- walker-count sweep ---
    const unsigned walkerCounts[] = {1, 2, 4, 8};
    auto walkerKey = [](unsigned walkers, Benchmark b) {
        return "ablation_walker/walkers" + std::to_string(walkers) + "/" +
            benchmarkName(b);
    };
    for (unsigned walkers : walkerCounts) {
        SystemConfig cfg = baselineConfig();
        cfg.ptw.maxConcurrentWalks = walkers;
        for (Benchmark b : subset)
            registerPoint(walkerKey(walkers, b), cfg, b);
    }

    // --- PSC sweep: none / Table I / doubled ---
    struct PscCfg
    {
        const char *name;
        std::array<std::uint32_t, 4> sizes;
    };
    const PscCfg pscs[] = {
        {"psc=off", {1, 1, 1, 1}}, // 1-entry: effectively useless
        {"psc=TableI", {32, 8, 4, 2}},
        {"psc=2x", {64, 16, 8, 4}},
    };
    auto pscKey = [](const PscCfg &p, Benchmark b) {
        return std::string("ablation_walker/") + p.name + "/" +
            benchmarkName(b);
    };
    for (const PscCfg &p : pscs) {
        SystemConfig cfg = baselineConfig();
        cfg.ptw.pscSizes = p.sizes;
        for (Benchmark b : subset)
            registerPoint(pscKey(p, b), cfg, b);
    }

    return benchMain(argc, argv,
                     "Ablation — page-walker concurrency and PSC sizing",
                     [&] {
        for (unsigned walkers : walkerCounts)
            for (Benchmark b : subset)
                addRow("walkers=" + std::to_string(walkers),
                       benchmarkName(b),
                       sweep().result(walkerKey(walkers, b)).ipc,
                       std::nan(""), "IPC");
        for (const PscCfg &p : pscs)
            for (Benchmark b : subset)
                addRow(p.name, benchmarkName(b),
                       sweep().result(pscKey(p, b)).ipc, std::nan(""),
                       "IPC");
    });
}
