/**
 * @file
 * Human-readable summaries of scenarios and results.
 *
 * Library-level formatting used by the busarb_sim tool and available to
 * applications: a one-paragraph scenario description and a summary
 * table of the paper's output measures with confidence intervals.
 */

#ifndef BUSARB_EXPERIMENT_REPORT_HH
#define BUSARB_EXPERIMENT_REPORT_HH

#include <iosfwd>
#include <string>

#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {

/**
 * One-paragraph description of a scenario configuration.
 *
 * @param config The scenario.
 * @return E.g. "10 agents, total offered load 2.00 (cv 1), transaction
 *         1, arbitration 0.5 overlapped; 10 batches x 8000".
 */
std::string describeScenario(const ScenarioConfig &config);

/**
 * Print the standard summary block for one result.
 *
 * @param result The scenario result.
 * @param os Destination stream.
 */
void printSummary(const ScenarioResult &result, std::ostream &os);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_REPORT_HH
