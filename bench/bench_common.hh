/**
 * @file
 * Shared plumbing for the table/figure reproduction harnesses.
 *
 * Every harness uses the paper's output-analysis plan (Section 4.1):
 * 10 batches x 8000 completed requests, one warm-up batch, 90%
 * confidence intervals. Set BUSARB_BENCH_BATCH in the environment to
 * override the batch size (e.g. 1000 for a quick pass); a malformed
 * value (`abc`, `12x`, `-3`) exits 2 naming the variable rather than
 * silently falling back to the default.
 */

#ifndef BUSARB_BENCH_BENCH_COMMON_HH
#define BUSARB_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/cli.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb::bench {

/** @return Batch size: 8000 (paper) or the BUSARB_BENCH_BATCH override. */
inline std::uint64_t
batchSize()
{
    const char *env = std::getenv("BUSARB_BENCH_BATCH");
    if (env == nullptr || *env == '\0')
        return 8000;
    long v = 0;
    if (!parseLong(env, v) || v < 1) {
        std::cerr << "BUSARB_BENCH_BATCH: expected an integer >= 1, got '"
                  << env << "'\n";
        std::exit(2);
    }
    return static_cast<std::uint64_t>(v);
}

/** Apply the paper's measurement plan to a scenario. */
inline ScenarioConfig
withPaperMeasurement(ScenarioConfig config)
{
    config.numBatches = 10;
    config.batchSize = batchSize();
    config.warmup = batchSize();
    config.confidence = 0.90;
    return config;
}

/** Total offered loads used across the paper's tables. */
inline const std::vector<double> &
paperLoads()
{
    static const std::vector<double> loads{0.25, 0.50, 1.00, 1.50,
                                           2.00, 2.50, 5.00, 7.50};
    return loads;
}

/** Print a section heading. */
inline void
heading(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

} // namespace busarb::bench

#endif // BUSARB_BENCH_BENCH_COMMON_HH
