/**
 * @file
 * End-to-end smoke test: a tiny single-core run completes and basic
 * invariants hold.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"

namespace tacsim {
namespace {

TEST(Smoke, SingleCoreRunCompletes)
{
    SystemConfig cfg;
    RunResult r = runSpecMix(cfg, {"mcf"}, 20000, 5000);
    EXPECT_GE(r.instructions, 20000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 6.0);
}

} // namespace
} // namespace tacsim
