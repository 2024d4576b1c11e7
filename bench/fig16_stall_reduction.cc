/**
 * @file
 * Paper Fig. 16: reduction in ROB-head stall cycles caused by STLB
 * misses (translation phase) and by replay requests, with the full
 * scheme.
 *
 * Paper reference points (suite average): translation-stall cycles
 * -28.76%, replay-stall cycles -18.5%, combined -46.7% of the
 * translation+replay stall total; xalancbmk's stalls drop ~77%.
 */

#include "bench_common.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    for (Benchmark b : kAllBenchmarks) {
        const std::string name = benchmarkName(b);
        registerPoint("base/" + name, baselineConfig(), b);
        registerPoint("prop/" + name, proposedConfig(), b);
    }

    // Optional nested-translation axis (TACSIM_VM_AXES=1): with 2D
    // guest×host walks every STLB miss costs several times more cache
    // references, so translation-stall savings should grow.
    const VmAxis nestedAxis{"nested", 0.0, 0.0, true};
    if (vmAxesRequested()) {
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            registerPoint("vm/nested/base/" + name,
                          withVmAxis(baselineConfig(), nestedAxis), b);
            registerPoint("vm/nested/prop/" + name,
                          withVmAxis(proposedConfig(), nestedAxis), b);
        }
    }

    return benchMain(argc, argv,
                     "Fig. 16 — ROB stall-cycle reduction (T and R)", [] {
        auto red = [](std::uint64_t b0, std::uint64_t b1) {
            return b0 ? (1.0 - double(b1) / double(b0)) * 100 : 0.0;
        };
        std::uint64_t baseT = 0, baseR = 0, enhT = 0, enhR = 0;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &base = sweep().result("base/" + name);
            const RunResult &enh = sweep().result("prop/" + name);
            addRow("T-stall reduction", name, red(base.stallT, enh.stallT),
                   std::nan(""), "%");
            addRow("R-stall reduction", name, red(base.stallR, enh.stallR),
                   std::nan(""), "%");
            addRow("T+R stall reduction", name,
                   red(base.stallT + base.stallR, enh.stallT + enh.stallR),
                   std::nan(""), "%");
            baseT += base.stallT;
            baseR += base.stallR;
            enhT += enh.stallT;
            enhR += enh.stallR;
        }

        // Suite aggregates are cycle-weighted (total stall cycles
        // across the suite): per-benchmark percentages over tiny T-stall
        // denominators would let one outlier dominate the mean.
        addRow("T-stall reduction", "suite total", red(baseT, enhT),
               28.76, "%");
        addRow("R-stall reduction", "suite total", red(baseR, enhR),
               18.5, "%");
        addRow("T+R stall reduction", "suite total",
               red(baseT + baseR, enhT + enhR), 46.7, "%");

        if (vmAxesRequested()) {
            std::uint64_t bT = 0, bR = 0, eT = 0, eR = 0;
            for (Benchmark b : kAllBenchmarks) {
                const std::string name = benchmarkName(b);
                const RunResult &base =
                    sweep().result("vm/nested/base/" + name);
                const RunResult &enh =
                    sweep().result("vm/nested/prop/" + name);
                bT += base.stallT;
                bR += base.stallR;
                eT += enh.stallT;
                eR += enh.stallR;
            }
            addRow("T-stall reduction", "nested suite", red(bT, eT),
                   std::nan(""), "%");
            addRow("T+R stall reduction", "nested suite",
                   red(bT + bR, eT + eR), std::nan(""), "%");
        }
    });
}
