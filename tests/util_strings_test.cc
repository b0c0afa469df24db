/** @file Unit tests for string helpers and text rendering utilities. */

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"

namespace act::util {
namespace {

TEST(Strings, ToLowerAndStartsWith)
{
    EXPECT_EQ(toLower("Kirin 990"), "kirin 990");
    EXPECT_TRUE(startsWith("Snapdragon 865", "Snap"));
    EXPECT_FALSE(startsWith("DSP", "DSPX"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(Strings, FormatFixed)
{
    EXPECT_EQ(formatFixed(1.2345, 2), "1.23");
    EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
    EXPECT_EQ(formatFixed(3.0, 0), "3");
}

TEST(Strings, FormatSig)
{
    EXPECT_EQ(formatSig(0.0, 3), "0");
    EXPECT_EQ(formatSig(1234.6, 4), "1235");
    EXPECT_EQ(formatSig(0.001234, 2), "0.0012");
    EXPECT_EQ(formatSig(12.345, 3), "12.3");
}

TEST(Strings, FormatSigLargeAndTinyUseScientific)
{
    EXPECT_NE(formatSig(1.5e9, 3).find('e'), std::string::npos);
    EXPECT_NE(formatSig(2.5e-7, 3).find('e'), std::string::npos);
}

TEST(Table, RendersHeaderAndRows)
{
    Table table({"Node", "EPA"});
    table.addRow({"28nm", "0.90"});
    table.addRow("20nm", {1.2}, 3);
    const std::string out = table.render();
    EXPECT_NE(out.find("Node"), std::string::npos);
    EXPECT_NE(out.find("28nm"), std::string::npos);
    EXPECT_NE(out.find("1.20"), std::string::npos);
}

TEST(Table, MismatchedRowIsFatal)
{
    Table table({"a", "b"});
    EXPECT_EXIT(table.addRow({"only one"}), ::testing::ExitedWithCode(1),
                "");
}

TEST(Table, SeparatorInsertsRule)
{
    Table table({"x"});
    table.addRow({"1"});
    table.addSeparator();
    table.addRow({"2"});
    const std::string out = table.render();
    // header rule + top + bottom + separator = 4 rules.
    std::size_t rules = 0;
    for (std::size_t pos = out.find("+-"); pos != std::string::npos;
         pos = out.find("+-", pos + 1)) {
        ++rules;
    }
    EXPECT_GE(rules, 4u);
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::escapeField("plain"), "plain");
    EXPECT_EQ(CsvWriter::escapeField("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escapeField("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows)
{
    CsvWriter csv({"name", "value"});
    csv.addRow({"alpha", "1"});
    csv.addRow("beta", {2.5});
    const std::string out = csv.toString();
    EXPECT_EQ(out.substr(0, 11), "name,value\n");
    EXPECT_NE(out.find("alpha,1"), std::string::npos);
    EXPECT_NE(out.find("beta,2.5"), std::string::npos);
}

TEST(Csv, ColumnMismatchIsFatal)
{
    CsvWriter csv({"a"});
    EXPECT_EXIT(csv.addRow({"1", "2"}), ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::util
