/**
 * @file
 * The observer knobs of one run: which sinks watch the bus and how they
 * are tuned. ScenarioConfig carries one as `observe`; a sweep's
 * SweepTuning is one plus its queue policy. Each field's flag, key,
 * range and help text live in one table, experiment/observer_flags.hh.
 */

#ifndef BUSARB_OBS_OBSERVER_CONFIG_HH
#define BUSARB_OBS_OBSERVER_CONFIG_HH

namespace busarb {

/** Observer sinks of a run and their tuning (defaults: all off). */
struct ObserverConfig
{
    /** Capture a binary event trace into ScenarioResult::binaryTrace. */
    bool captureTrace = false;

    /** Keep the last M bus events; dump them if the run panics. */
    int flightRecorder = 0;

    /** Attach the fairness auditor (obs/fairness_auditor.hh). */
    bool fairness = false;

    /** Fairness window width, in transaction units. */
    double fairnessWindow = 50.0;

    /** Audited bypass bound per grant; 0 selects the paper's N-1. */
    int bypassBound = 0;

    /** Fairness snapshot interval in simulated units; 0 disables. */
    double snapshotEvery = 0.0;

    /** Attach the run-health monitor (obs/run_health.hh). */
    bool health = false;

    /** Relative CI half-width target (the paper's "within 5%"). */
    double healthRelHw = 0.05;

    /** |lag-1| autocorrelation threshold for batch-mean independence. */
    double healthLag1 = 0.3;

    /** Emit one health snapshot line per batch. */
    bool healthSnapshots = false;

    /** @return True when the auditor runs: its snapshots need it. */
    bool auditsFairness() const { return fairness || snapshotEvery > 0.0; }

    /** @return True when the health monitor runs. */
    bool monitorsHealth() const { return health || healthSnapshots; }
};

} // namespace busarb

#endif // BUSARB_OBS_OBSERVER_CONFIG_HH
