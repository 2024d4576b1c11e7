/**
 * @file
 * Build guard and host record. Numbers from a verify build, a sanitizer
 * build or an unoptimised build describe a different program than the
 * one researchers run, so the benchmark refuses to record them.
 */

#ifndef PERFBENCH_BUILD_GUARD_HH
#define PERFBENCH_BUILD_GUARD_HH

#include <string>
#include <vector>

namespace perfbench {

/** Reasons this binary must not record numbers; empty when it may. */
std::vector<std::string> buildProblems();

/** Host CPUs, compiler and OS as one line of JSON object members
 *  ("\"cpus\": 4, \"compiler\": ..., \"os\": ..."). */
std::string hostJsonMembers();

} // namespace perfbench

#endif // PERFBENCH_BUILD_GUARD_HH
