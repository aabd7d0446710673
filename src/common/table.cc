#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace libra {

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::row(std::vector<std::string> cells)
{
    if (!header_.empty() && cells.size() != header_.size()) {
        panic("table row width ", cells.size(), " != header width ",
              header_.size());
    }
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

void
Table::print(std::ostream& os) const
{
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string>& cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto& r : rows_)
        grow(r);

    auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << cells[i];
        }
        os << '\n';
    };

    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (auto w : widths)
            total += w + 2;
        os << std::string(total, '-') << '\n';
    }
    for (const auto& r : rows_)
        emit(r);
}

} // namespace libra
