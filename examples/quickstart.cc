/**
 * @file
 * Quickstart: build a Sunny-Cove-like system (paper Table I), run the
 * pr (PageRank) benchmark with and without the paper's translation-
 * aware enhancements (T-DRRIP + T-SHiP + ATP + TEMPO), and print the
 * speedup and the on-chip leaf-translation hit rate.
 */

#include <cstdio>

#include "sim/runner.hh"

int
main()
{
    using namespace tacsim;

    SystemConfig baseline; // Table I defaults: DRRIP @ L2C, SHiP @ LLC
    SystemConfig enhanced = baseline;
    TranslationAwareOptions opts;
    opts.tempo = true;
    applyTranslationAware(enhanced, opts);

    RunResult base = runSpecMix(baseline, {"pr"});
    RunResult enh = runSpecMix(enhanced, {"pr"});

    std::printf("pr: baseline IPC %.3f, enhanced IPC %.3f, "
                "speedup %+.2f%%\n",
                base.ipc, enh.ipc, (speedup(base, enh) - 1.0) * 100.0);
    std::printf("    leaf translations on-chip: %.1f%% -> %.1f%%\n",
                base.leafOnChipHitRate * 100,
                enh.leafOnChipHitRate * 100);
    return 0;
}
