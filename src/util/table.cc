#include "util/table.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"
#include "util/strings.h"

namespace act::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        fatal("Table requires at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size()) {
        fatal("Table row has ", cells.size(), " cells, expected ",
              headers_.size());
    }
    rows_.push_back({std::move(cells), pending_separator_});
    pending_separator_ = false;
}

void
Table::addRow(const std::string &label, const std::vector<double> &values,
              int significant_digits)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(label);
    for (double v : values)
        cells.push_back(formatSig(v, significant_digits));
    addRow(std::move(cells));
}

void
Table::addSeparator()
{
    pending_separator_ = true;
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const Row &row : rows_) {
        for (std::size_t c = 0; c < row.cells.size(); ++c)
            widths[c] = std::max(widths[c], row.cells[c].size());
    }

    const auto rule = [&widths]() {
        std::string line = "+";
        for (std::size_t w : widths) {
            line.append(w + 2, '-');
            line.push_back('+');
        }
        line.push_back('\n');
        return line;
    };

    const auto render_cells =
        [&widths](const std::vector<std::string> &cells) {
            std::ostringstream out;
            out << "|";
            for (std::size_t c = 0; c < cells.size(); ++c) {
                const std::size_t pad = widths[c] - cells[c].size();
                out << ' ';
                if (c == 0)
                    out << cells[c] << std::string(pad, ' ');
                else
                    out << std::string(pad, ' ') << cells[c];
                out << " |";
            }
            out << '\n';
            return out.str();
        };

    std::ostringstream out;
    out << rule();
    out << render_cells(headers_);
    out << rule();
    for (const Row &row : rows_) {
        if (row.separator_before)
            out << rule();
        out << render_cells(row.cells);
    }
    out << rule();
    return out.str();
}

} // namespace act::util
