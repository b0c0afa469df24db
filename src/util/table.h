/**
 * @file
 * Plain-text table rendering for the benchmark harness. Every table and
 * figure binary prints its rows through this class so output is uniform
 * and easy to diff against EXPERIMENTS.md.
 */

#ifndef ACT_UTIL_TABLE_H
#define ACT_UTIL_TABLE_H

#include <initializer_list>
#include <string>
#include <vector>

namespace act::util {

/**
 * A simple monospace table builder. The first column is left-aligned
 * and the rest right-aligned, which suits "name, numbers..." layouts.
 *
 * Usage:
 *   Table t({"Node", "EPA (kWh/cm2)"});
 *   t.addRow({"28nm", "0.90"});
 *   std::cout << t.render();
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; fatal if the cell count mismatches the header. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: first cell is a label, the rest are numbers rendered
     *  with the given number of significant digits. */
    void addRow(const std::string &label, const std::vector<double> &values,
                int significant_digits = 4);

    /** Insert a horizontal rule before the next row. */
    void addSeparator();

    /** Render to a string, one trailing newline included. */
    std::string render() const;

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool separator_before = false;
    };

    std::vector<std::string> headers_;
    std::vector<Row> rows_;
    bool pending_separator_ = false;
};

} // namespace act::util

#endif // ACT_UTIL_TABLE_H
