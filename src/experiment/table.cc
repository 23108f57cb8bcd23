#include "experiment/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "sim/logging.hh"
#include "stats/autocorrelation.hh"

namespace busarb {

namespace {

/** Columns of UTF-8 text: its bytes that are not 10xxxxxx ("±" is 2). */
std::size_t
displayWidth(const std::string &text)
{
    return std::count_if(text.begin(), text.end(),
                         [](char c) { return (c & 0xC0) != 0x80; });
}

/** The text of `column` at grid cell `cell`. */
std::string
columnText(const ScenarioSpec &spec,
           const std::vector<ScenarioResult> &results,
           const TableSpec::Column &column, std::size_t cell)
{
    using Kind = TableSpec::Column::Kind;
    const ScenarioResult &result = results.at(cell);
    const Histogram &waits = result.waitHistogram;
    // The overlap quantities read the cells of protocols a and b on
    // this cell's row (cells run rows outer, protocols inner).
    const std::size_t row_start = cell - cell % spec.protocolSpecs.size();
    const auto overlap = [&] {
        return overlapValue(
            results.at(row_start + static_cast<std::size_t>(column.a))
                .waitHistogram,
            results.at(row_start + static_cast<std::size_t>(column.b))
                .waitHistogram);
    };
    const auto config = [&] {
        return spec.configForLoad(spec.cellLoadToken(cell));
    };
    switch (column.kind) {
    case Kind::kEstimate: {
        const ResultEstimate &e = *column.estimate;
        return e.csv == CsvForm::kValueAndHalfWidth
                   ? formatEstimate(e.compute(result), e.digits)
                   : formatFixed(e.compute(result).value, e.digits);
    }
    case Kind::kOffered:
        return formatFixed(config().totalOfferedLoad());
    case Kind::kRatio:
        return formatEstimate(result.throughputRatio(column.a, column.b));
    case Kind::kCdf:
        return formatFixed(waits.cdf(column.t), 3);
    case Kind::kWaitLag1: {
        std::vector<double> means;
        for (const BatchStats &b : result.batches)
            means.push_back(b.waitMean);
        return formatFixed(autocorrelation(means, 1), 3);
    }
    case Kind::kLines: {
        auto protocol = ProtocolRegistry::builtin().fromSpec(
            spec.cellProtocolSpec(cell))();
        protocol->reset(spec.agents);
        return std::to_string(protocol->arbitrationLineCount());
    }
    case Kind::kOverlap:
        return formatFixed(overlap(), 0);
    case Kind::kOverlapResidual:
        return formatFixed(waits.expectedExcess(overlap()));
    case Kind::kOverlapProductivity: {
        const double think = config().agents.front().meanInterrequest;
        return formatFixed((think + waits.expectedMin(overlap())) /
                           (think + result.meanWait().value));
    }
    }
    BUSARB_PANIC("unhandled table quantity '", column.quantity, "'");
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

void
printGridTables(const ScenarioSpec &spec,
                const std::vector<ScenarioResult> &results,
                std::ostream &os)
{
    const std::vector<std::string> &protocols = spec.protocolSpecs;
    for (const TableSpec &t : spec.tables) {
        // Rows run along one axis; each column names its cell on the
        // other. Cells are numbered rows outer, protocols inner.
        const auto &rows = t.protocolRows ? protocols : spec.rowAxis();
        const auto &across = t.protocolRows ? spec.rowAxis() : protocols;
        std::vector<std::string> headers{t.protocolRows ? "protocol"
                                                          : spec.rowName()};
        for (const auto &column : t.columns)
            headers.push_back(column.header);
        TextTable table(headers);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            std::vector<std::string> cells{rows[r]};
            for (const auto &column : t.columns) {
                const std::size_t a = static_cast<std::size_t>(
                    std::find(across.begin(), across.end(), column.at) -
                    across.begin());
                const std::size_t cell =
                    t.protocolRows ? a * protocols.size() + r
                                     : r * protocols.size() + a;
                cells.push_back(columnText(spec, results, column, cell));
            }
            table.addRow(std::move(cells));
        }
        os << "\n=== " << t.title << " ===\n\n";
        table.print(os);
    }
}

} // namespace busarb
