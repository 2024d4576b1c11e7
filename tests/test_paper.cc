/**
 * @file
 * Tests for tacsim-paper's figure table (bench/figures.hh), run without
 * simulating a point: every figure has its own name and registers
 * points, and all of them share one SweepRunner, where a point that
 * several figures read is registered once.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "figures.hh"

namespace tacbench {
namespace {

TEST(Paper, FigureNamesAreUnique)
{
    std::set<std::string> names;
    for (const Figure *f : kFigures) {
        EXPECT_TRUE(names.insert(f->name).second) << f->name;
        EXPECT_EQ(findFigure(f->name), f);
    }
    EXPECT_EQ(findFigure("no-such-figure"), nullptr);
}

TEST(Paper, EveryFigureRegistersAPoint)
{
    for (const Figure *f : kFigures) {
        SweepRunner sweep(1);
        f->registerPoints(sweep);
        EXPECT_GT(sweep.points(), 0u) << f->name;
    }
}

TEST(Paper, AllFiguresShareOneSweep)
{
    // Registering a name twice for different points throws, so this
    // also checks that no two figures use one key for two points.
    SweepRunner sweep(1);
    for (const Figure *f : kFigures)
        ASSERT_NO_THROW(f->registerPoints(sweep)) << f->name;
    // 551 distinct points across the figures other than vm-axes, plus
    // vm-axes' 54 (none of which another figure registers).
    EXPECT_EQ(sweep.points(), 605u);
}

} // namespace
} // namespace tacbench
