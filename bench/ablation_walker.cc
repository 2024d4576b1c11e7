/**
 * @file
 * Design-choice ablation: page-walker provisioning. Sweeps the number
 * of concurrent walkers and the PSC sizes — the substrate knobs the
 * paper's Table I fixes (4-ish walkers; PSCL5/4/3/2 = 2/4/8/32) — to
 * show the evaluation is not an artifact of an over- or under-
 * provisioned MMU.
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const Benchmark subset[] = {Benchmark::mcf, Benchmark::pr,
                                Benchmark::cc};

    // --- walker-count sweep ---
    for (unsigned walkers : {1u, 2u, 4u, 8u}) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            const std::string key = "ablation_walker/walkers" +
                std::to_string(walkers) + "/" + bname;
            registerCase(key,
                         [key, walkers, b, bname] {
                             SystemConfig cfg = baselineConfig();
                             cfg.ptw.maxConcurrentWalks = walkers;
                             const RunResult &r = cachedRun(key, cfg, b);
                             addRow("walkers=" + std::to_string(walkers),
                                    bname, r.ipc, std::nan(""), "IPC");
                         });
        }
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
    for (const PscCfg &p : pscs) {
        for (Benchmark b : subset) {
            const std::string bname = benchmarkName(b);
            PscCfg pc = p;
            const std::string key =
                std::string("ablation_walker/") + p.name + "/" + bname;
            registerCase(key,
                         [key, pc, b, bname] {
                             SystemConfig cfg = baselineConfig();
                             cfg.ptw.pscSizes = pc.sizes;
                             const RunResult &r = cachedRun(key, cfg, b);
                             addRow(pc.name, bname, r.ipc, std::nan(""),
                                    "IPC");
                         });
        }
    }

    return benchMain(argc, argv,
                     "Ablation — page-walker concurrency and PSC sizing");
}
