/** @file Tests for the design-space exploration primitives. */

#include <cstdint>
#include <gtest/gtest.h>

#include "dse/pareto.h"
#include "dse/scoreboard.h"

namespace act::dse {
namespace {

TEST(Pareto, Dominance)
{
    const Point2D a{"a", 1.0, 1.0};
    const Point2D b{"b", 2.0, 2.0};
    const Point2D c{"c", 1.0, 2.0};
    EXPECT_TRUE(dominates(a, b));
    EXPECT_TRUE(dominates(a, c));
    EXPECT_FALSE(dominates(b, a));
    EXPECT_FALSE(dominates(a, a));  // equal points do not dominate
    EXPECT_FALSE(dominates(c, b) && dominates(b, c));
}

TEST(Pareto, SimpleFrontier)
{
    const std::vector<Point2D> points = {
        {"fast-dirty", 1.0, 10.0},
        {"balanced", 3.0, 3.0},
        {"slow-clean", 10.0, 1.0},
        {"dominated", 5.0, 5.0},
    };
    const auto frontier = paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_EQ(points[frontier[0]].name, "fast-dirty");
    EXPECT_EQ(points[frontier[1]].name, "balanced");
    EXPECT_EQ(points[frontier[2]].name, "slow-clean");
}

TEST(Pareto, DuplicatesAllSurvive)
{
    const std::vector<Point2D> points = {{"a", 1.0, 1.0},
                                         {"b", 1.0, 1.0}};
    EXPECT_EQ(paretoFrontier(points).size(), 2u);
}

TEST(Pareto, PropertyNoFrontierPointIsDominated)
{
    // Deterministic pseudo-random cloud.
    std::uint64_t state = 12345;
    const auto next = [&state]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<double>((state >> 33) % 1000) / 100.0;
    };
    std::vector<Point2D> points;
    for (int i = 0; i < 200; ++i)
        points.push_back({"p" + std::to_string(i), next(), next()});

    const auto frontier = paretoFrontier(points);
    ASSERT_FALSE(frontier.empty());
    for (std::size_t f : frontier) {
        for (const auto &other : points)
            EXPECT_FALSE(dominates(other, points[f]));
    }
    // And every non-frontier point is dominated by someone.
    std::vector<bool> on_frontier(points.size(), false);
    for (std::size_t f : frontier)
        on_frontier[f] = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (on_frontier[i])
            continue;
        bool dominated = false;
        for (const auto &other : points)
            dominated = dominated || dominates(other, points[i]);
        EXPECT_TRUE(dominated) << points[i].name;
    }
}

TEST(Scoreboard, ColumnsAndWinners)
{
    std::vector<core::DesignPoint> designs(2);
    designs[0].name = "lean";
    designs[0].embodied = util::grams(1.0);
    designs[0].energy = util::kilowattHours(2.0);
    designs[0].delay = util::seconds(4.0);
    designs[0].area = util::squareCentimeters(1.0);
    designs[1].name = "fast";
    designs[1].embodied = util::grams(4.0);
    designs[1].energy = util::kilowattHours(1.0);
    designs[1].delay = util::seconds(1.0);
    designs[1].area = util::squareCentimeters(2.0);

    const Scoreboard scoreboard(designs);
    EXPECT_EQ(scoreboard.columns().size(), 6u);
    EXPECT_EQ(scoreboard.winner(core::Metric::EDP), "fast");
    EXPECT_EQ(scoreboard.winner(core::Metric::C2EP), "lean");
    const auto &column = scoreboard.column(core::Metric::CEP);
    EXPECT_DOUBLE_EQ(column.normalized[0], 1.0);
    EXPECT_DOUBLE_EQ(column.normalized[1], 2.0);
    EXPECT_EQ(column.values.size(), 2u);
}

TEST(Scoreboard, EmptyOrBadBaselineIsFatal)
{
    EXPECT_EXIT(Scoreboard({}), ::testing::ExitedWithCode(1), "");
    std::vector<core::DesignPoint> one(1);
    one[0].embodied = util::grams(1.0);
    one[0].energy = util::kilowattHours(1.0);
    one[0].delay = util::seconds(1.0);
    one[0].area = util::squareCentimeters(1.0);
    EXPECT_EXIT(Scoreboard(one, 5), ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::dse
