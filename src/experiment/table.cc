#include "experiment/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace busarb {

namespace {

/** Columns of UTF-8 text: its bytes that are not 10xxxxxx ("±" is 2). */
std::size_t
displayWidth(const std::string &text)
{
    return std::count_if(text.begin(), text.end(),
                         [](char c) { return (c & 0xC0) != 0x80; });
}

} // namespace

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    BUSARB_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    BUSARB_ASSERT(cells.size() == headers_.size(), "row has ",
                  cells.size(), " cells, expected ", headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = displayWidth(headers_[c]);
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], displayWidth(row[c]));
    }
    const auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << "  " << row[c]
               << std::string(widths[c] - displayWidth(row[c]), ' ');
        }
        os << "\n";
    };
    print_row(headers_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        print_row(row);
}

std::string
formatFixed(double value, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << value;
    return os.str();
}

std::string
formatEstimate(const Estimate &e, int decimals)
{
    return e.str(decimals);
}

} // namespace busarb
