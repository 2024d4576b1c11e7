/**
 * @file
 * Paper Fig. 19: STLB-size sensitivity — the proposal's speedup vs a
 * same-size baseline, for 512 to 4096 STLB entries.
 *
 * Paper reference points: gains persist across sizes (recall distances
 * of the costly translations are large); gains shrink as the STLB grows
 * because STLB MPKI drops; mcf saturates once its translations fit
 * (STLB MPKI 0.39 at 4096 entries).
 */

#include <map>

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    const std::uint32_t sizes[] = {512, 1024, 2048, 4096};
    const Benchmark subset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                                Benchmark::mcf, Benchmark::cc,
                                Benchmark::pr};

    auto key = [](std::uint32_t entries, Benchmark b) {
        return "fig19/stlb" + std::to_string(entries) + "/" +
            benchmarkName(b);
    };
    for (std::uint32_t entries : sizes) {
        SystemConfig base = baselineConfig();
        base.stlbEntries = entries;
        for (Benchmark b : subset) {
            registerPoint(key(entries, b) + "/base", base, b);
            registerPoint(key(entries, b) + "/proposed",
                          proposedConfig(base), b);
        }
    }

    return benchMain(argc, argv, "Fig. 19 — STLB size sensitivity", [&] {
        std::map<std::uint32_t, std::vector<double>> series;
        for (std::uint32_t entries : sizes) {
            for (Benchmark b : subset) {
                const RunResult &rb =
                    sweep().result(key(entries, b) + "/base");
                const double sp = speedup(
                    rb, sweep().result(key(entries, b) + "/proposed"));
                addRow("STLB=" + std::to_string(entries), benchmarkName(b),
                       (sp - 1) * 100, std::nan(""),
                       "% (stlbMPKI " + std::to_string(rb.stlbMpki) + ")");
                series[entries].push_back(sp);
            }
        }
        for (std::uint32_t e : sizes)
            addRow("STLB=" + std::to_string(e), "geomean",
                   (geomean(series[e]) - 1) * 100, std::nan(""),
                   "% (paper: positive at all sizes, shrinking)");
    });
}
