/**
 * @file
 * CSV export of scenario results, for plotting outside the harness.
 */

#ifndef BUSARB_EXPERIMENT_CSV_HH
#define BUSARB_EXPERIMENT_CSV_HH

#include <iosfwd>
#include <string>

#include "experiment/runner.hh"

namespace busarb {

/**
 * Write per-batch measurements as CSV.
 *
 * Columns: batch, duration, utilization, wait_mean, wait_stddev,
 * passes, retry_passes, then completions_<agent> for each agent.
 *
 * @param result The scenario result.
 * @param os Destination stream.
 */
void writeBatchesCsv(const ScenarioResult &result, std::ostream &os);

/**
 * Write the waiting-time histogram as CSV.
 *
 * Columns: bin_lo, bin_hi, count, cdf. A final row covers the overflow
 * bucket with bin_hi = inf.
 *
 * @param result The scenario result (histogram must have been
 *        collected).
 * @param os Destination stream.
 */
void writeHistogramCsv(const ScenarioResult &result, std::ostream &os);

/**
 * Append one summary row (label, protocol, the kResultEstimates CSV
 * columns) to a CSV stream; call writeSummaryCsvHeader first.
 *
 * @param result The scenario result.
 * @param label Row label (e.g. the scenario parameters).
 * @param os Destination stream.
 */
void writeSummaryCsvRow(const ScenarioResult &result,
                        const std::string &label, std::ostream &os);

/** Write the header matching writeSummaryCsvRow. */
void writeSummaryCsvHeader(std::ostream &os);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_CSV_HH
