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

#include "figures.hh"

using namespace tacbench;

const Figure tacbench::fig16{
    "fig16", "Fig. 16 — ROB stall-cycle reduction (T and R)",
    [](SweepRunner &sweep) {
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            registerPoint(sweep, "base/" + name, baselineConfig(), b);
            registerPoint(sweep, "prop/" + name, proposedConfig(), b);
        }
    },
    [](const SweepRunner &sweep) {
        Rows rows;
        std::uint64_t baseT = 0, baseR = 0, enhT = 0, enhR = 0;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &base = sweep.result("base/" + name);
            const RunResult &enh = sweep.result("prop/" + name);
            addRow(rows, "T-stall reduction", name,
                   stallReduction(base.stallT, enh.stallT), std::nan(""), "%");
            addRow(rows, "R-stall reduction", name,
                   stallReduction(base.stallR, enh.stallR), std::nan(""), "%");
            addRow(rows, "T+R stall reduction", name,
                   stallReduction(base.stallT + base.stallR,
                                  enh.stallT + enh.stallR),
                   std::nan(""), "%");
            baseT += base.stallT;
            baseR += base.stallR;
            enhT += enh.stallT;
            enhR += enh.stallR;
        }

        // Suite aggregates are cycle-weighted (total stall cycles across the
        // suite): per-benchmark percentages over tiny T-stall denominators
        // would let one outlier dominate the mean.
        addRow(rows, "T-stall reduction", "suite total",
               stallReduction(baseT, enhT), 28.76, "%");
        addRow(rows, "R-stall reduction", "suite total",
               stallReduction(baseR, enhR), 18.5, "%");
        addRow(rows, "T+R stall reduction", "suite total",
               stallReduction(baseT + baseR, enhT + enhR), 46.7, "%");
        return rows;
    }};
