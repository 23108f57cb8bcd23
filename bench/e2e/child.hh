/**
 * @file
 * Runs one program as a timed child process: steady_clock around
 * fork/exec and wait4, with the child's peak RSS from wait4's rusage
 * (which covers the workers it waited for itself).
 */

#ifndef BUSARB_BENCH_E2E_CHILD_HH
#define BUSARB_BENCH_E2E_CHILD_HH

#include <string>
#include <vector>

namespace e2e {

/** Outcome of one child run. */
struct ChildRun
{
    /** True when the child exited normally with status 0. */
    bool ok = false;

    /** Human-readable exit status ("exit 0", "signal 9", "timeout"). */
    std::string status;

    /** Wall time from just before fork to wait4's return, seconds. */
    double wallSeconds = 0.0;

    /** Peak resident set size of the child and its waited workers, MB. */
    double maxRssMb = 0.0;
};

/**
 * Make this process the reaper of orphaned descendants, so workers of a
 * child killed on timeout are reaped here instead of outliving the run.
 * Call once at start-up.
 */
void becomeSubreaper();

/**
 * Run `argv` (argv[0] is the program path) with stdout and stderr sent
 * to `log_path`, killing its whole process group after
 * `timeout_seconds`. Every process the child started has ended when this
 * returns.
 */
ChildRun runChild(const std::vector<std::string> &argv,
                  const std::string &log_path, unsigned timeout_seconds);

} // namespace e2e

#endif // BUSARB_BENCH_E2E_CHILD_HH
