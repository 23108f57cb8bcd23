/**
 * @file
 * A minimal fixed-width text table, and the renderer of a grid file's
 * [table] sections: the paper-style result tables busarb_sweep prints.
 */

#ifndef BUSARB_EXPERIMENT_TABLE_HH
#define BUSARB_EXPERIMENT_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/batch_means.hh"

namespace busarb {

struct ScenarioResult;
struct ScenarioSpec;

/**
 * Column-aligned ASCII table writer.
 */
class TextTable
{
  public:
    /** @param headers Column headers, left to right. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with a separator under the header. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed decimals. */
std::string formatFixed(double value, int decimals = 2);

/** Format an estimate as "v ± hw". */
std::string formatEstimate(const Estimate &e, int decimals = 2);

/**
 * Print each [table] section of a grid under a "=== title ===" line.
 * Estimates print at the catalogue's digits, with "± hw" where the
 * sweep CSV carries a half-width; ratio(a,b) prints as an estimate and
 * offered as the cell's total offered load, both at 2 decimals. cdf(t)
 * and wait_lag1 print at 3 decimals, lines and overlap(a,b) as
 * integers, and the overlap residual and productivity at 2 decimals.
 *
 * @param results One per grid cell, in cell order.
 */
void printGridTables(const ScenarioSpec &spec,
                     const std::vector<ScenarioResult> &results,
                     std::ostream &os);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_TABLE_HH
