/** @file Tests for ASCII chart rendering and the experiment reporter. */

#include <gtest/gtest.h>

#include "report/experiment.h"
#include "util/chart.h"

namespace act {
namespace {

TEST(BarChart, RendersLabelsValuesAndNotes)
{
    const std::vector<util::BarEntry> entries = {
        {"alpha", 10.0, ""},
        {"beta", 5.0, "[vendor]"},
    };
    const std::string out =
        util::renderBarChart("Test chart", entries, 20);
    EXPECT_NE(out.find("Test chart"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("[vendor]"), std::string::npos);
    // The max entry fills the full width, the half entry half of it.
    EXPECT_NE(out.find(std::string(20, '#')), std::string::npos);
    EXPECT_NE(out.find("|" + std::string(10, '#') + " "),
              std::string::npos);
}

TEST(BarChart, EmptyAndZeroInputsAreSafe)
{
    EXPECT_EQ(util::renderBarChart("empty", {}), "empty\n");
    const std::vector<util::BarEntry> zeros = {{"z", 0.0, ""}};
    const std::string out = util::renderBarChart("zeros", zeros, 20);
    EXPECT_EQ(out.find('#'), std::string::npos);
}

TEST(StackedBarChart, SegmentsScaleWithValues)
{
    const std::vector<util::StackedBarEntry> entries = {
        {"a", 3.0, 1.0},
        {"b", 1.0, 1.0},
    };
    const std::string out = util::renderStackedBarChart(
        "Stack", "first", "second", entries, 40);
    EXPECT_NE(out.find("#=first"), std::string::npos);
    EXPECT_NE(out.find(".=second"), std::string::npos);
    // Entry "a" totals 4.0 and spans the full width: 30 '#' + 10 '.'.
    EXPECT_NE(out.find(std::string(30, '#') + std::string(10, '.')),
              std::string::npos);
    // Totals and the split are printed.
    EXPECT_NE(out.find("4.000 (3.000 + 1.000)"), std::string::npos);
}

TEST(ReportOptions, ParsesFlags)
{
    const char *argv_csv[] = {"prog", "--csv"};
    const auto csv =
        report::parseOptions(2, const_cast<char **>(argv_csv));
    EXPECT_TRUE(csv.csv);
    EXPECT_FALSE(csv.ablation);

    const char *argv_both[] = {"prog", "--ablation", "--csv"};
    const auto both =
        report::parseOptions(3, const_cast<char **>(argv_both));
    EXPECT_TRUE(both.csv);
    EXPECT_TRUE(both.ablation);

    const char *argv_none[] = {"prog"};
    const auto none =
        report::parseOptions(1, const_cast<char **>(argv_none));
    EXPECT_FALSE(none.csv);
    EXPECT_FALSE(none.ablation);
}

TEST(ReportOptions, UnknownFlagIsFatal)
{
    const char *argv_bad[] = {"prog", "--frobnicate"};
    EXPECT_EXIT(report::parseOptions(2, const_cast<char **>(argv_bad)),
                ::testing::ExitedWithCode(1), "");
}

TEST(ReportOptions, HelpExitsCleanly)
{
    const char *argv_help[] = {"prog", "--help"};
    EXPECT_EXIT(report::parseOptions(2, const_cast<char **>(argv_help)),
                ::testing::ExitedWithCode(0), "");
}

TEST(Experiment, ClaimAndNoteFormat)
{
    ::testing::internal::CaptureStdout();
    {
        report::Experiment experiment("Figure 0", "format check");
        experiment.section("part");
        experiment.claim("quantity", "1.0", "1.1");
        experiment.note("caveat");
    }
    const std::string out =
        ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("=== Figure 0: format check ==="),
              std::string::npos);
    EXPECT_NE(out.find("--- part ---"), std::string::npos);
    EXPECT_NE(out.find("[claim] quantity: paper=1.0 measured=1.1"),
              std::string::npos);
    EXPECT_NE(out.find("[note] caveat"), std::string::npos);
}

} // namespace
} // namespace act
