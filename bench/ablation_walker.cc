/**
 * @file
 * Design-choice ablation: page-walker provisioning. Sweeps the number
 * of concurrent walkers and the PSC sizes — the substrate knobs the
 * paper's Table I fixes (4-ish walkers; PSCL5/4/3/2 = 2/4/8/32) — to
 * show the evaluation is not an artifact of an over- or under-
 * provisioned MMU.
 */

#include <array>

#include "figures.hh"

using namespace tacbench;

namespace {

const Benchmark kSubset[] = {Benchmark::mcf, Benchmark::pr, Benchmark::cc};

// --- walker-count sweep ---
const unsigned kWalkerCounts[] = {1, 2, 4, 8};

const auto walkerKey = [](unsigned walkers, Benchmark b) {
    return "ablation_walker/walkers" + std::to_string(walkers) + "/" +
        benchmarkName(b);
};

// --- PSC sweep: none / Table I / doubled ---
struct PscCfg
{
    const char *name;
    std::array<std::uint32_t, 4> sizes;
};

const PscCfg kPscs[] = {
    {"psc=off", {1, 1, 1, 1}}, // 1-entry: effectively useless
    {"psc=TableI", {32, 8, 4, 2}},
    {"psc=2x", {64, 16, 8, 4}},
};

const auto pscKey = [](const PscCfg &p, Benchmark b) {
    return std::string("ablation_walker/") + p.name + "/" + benchmarkName(b);
};

} // namespace

const Figure tacbench::ablationWalker{
    "ablation-walker", "Ablation — page-walker concurrency and PSC sizing",
    [](SweepRunner &sweep) {
        for (unsigned walkers : kWalkerCounts) {
            SystemConfig cfg = baselineConfig();
            cfg.ptw.maxConcurrentWalks = walkers;
            for (Benchmark b : kSubset)
                registerPoint(sweep, walkerKey(walkers, b), cfg, b);
        }
        for (const PscCfg &p : kPscs) {
            SystemConfig cfg = baselineConfig();
            cfg.ptw.pscSizes = p.sizes;
            for (Benchmark b : kSubset)
                registerPoint(sweep, pscKey(p, b), cfg, b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        for (unsigned walkers : kWalkerCounts)
            for (Benchmark b : kSubset)
                addRow(rows, "walkers=" + std::to_string(walkers),
                       benchmarkName(b),
                       sweep.result(walkerKey(walkers, b)).ipc, std::nan(""),
                       "IPC");
        for (const PscCfg &p : kPscs)
            for (Benchmark b : kSubset)
                addRow(rows, p.name, benchmarkName(b),
                       sweep.result(pscKey(p, b)).ipc, std::nan(""), "IPC");
        return rows;
    }};
