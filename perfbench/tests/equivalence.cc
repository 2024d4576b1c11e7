/**
 * @file
 * Equivalence test: for the first point of every workload, the
 * benchmark's phase-split drive must produce a dumpRunResult
 * byte-identical to runSpecMix on the same point. What the benchmark
 * times is then exactly what the figure binaries report.
 *
 *   perfbench-equivalence [SEED]     (exit 0 = all identical)
 */

#include <cstdio>
#include <cstdlib>

#include "points.hh"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const std::uint64_t seed =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
    int failures = 0;
    for (const std::string &name : workloadNames()) {
        const WorkloadDef w = makeWorkloadDef(name, seed);
        const Point &p = w.points.front();
        const std::vector<std::string> diffs = equivalenceDiffs(p);
        if (diffs.empty()) {
            std::printf("ok   %s %s\n", name.c_str(), p.key.c_str());
            continue;
        }
        std::printf("FAIL %s %s\n", name.c_str(), p.key.c_str());
        for (const std::string &d : diffs)
            std::printf("  %s\n", d.c_str());
        ++failures;
    }
    return failures ? 1 : 0;
}
