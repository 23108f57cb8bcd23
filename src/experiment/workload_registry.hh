/**
 * @file
 * The workload-source catalogue: the one way to build the traffic a
 * run sees from the workload layer (src/workload).
 *
 * Every source registers a WorkloadDescriptor (key, one-line summary,
 * reference, typed parameter schema, build function) with the same
 * SpecRegistry engine (experiment/spec_schema.hh) that serves the
 * protocol catalogue, so spec strings like
 *
 *   closed
 *   open:dist=pareto,alpha=1.6
 *   onoff:on=0.2,off=10,burst=8,gap=2
 *   trace:file=run.trace,format=binary
 *
 * parse, canonicalize and fail exactly like protocol specs. Scenario
 * files select a source with `source =` in `[workload]`; the runner
 * builds it per cell through buildWorkloadSource, and --list-workloads
 * prints the catalogue.
 */

#ifndef BUSARB_EXPERIMENT_WORKLOAD_REGISTRY_HH
#define BUSARB_EXPERIMENT_WORKLOAD_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

#include "experiment/spec_schema.hh"
#include "workload/scenario.hh"
#include "workload/workload_source.hh"

namespace busarb {

/**
 * Creates the workload source for one run. Invoked inside runScenario
 * after the queue and bus exist; every call builds a fresh, hermetic
 * source (JobPool-safe).
 */
using WorkloadSourceFactory =
    std::function<std::unique_ptr<WorkloadSource>(
        EventQueue &, Bus &, const ScenarioConfig &)>;

struct WorkloadDescriptor;

/** The workload-source catalogue (see SpecRegistry). */
using WorkloadRegistry = SpecRegistry<WorkloadDescriptor>;

/**
 * A parsed, validated workload-source spec — the shared canonical
 * key-plus-params shape from the schema engine.
 */
using WorkloadSpec = SpecInstance;

/**
 * Register every workload source in src/workload: the paper's closed
 * loop, the open-loop renewal/heavy-tail/MMPP family, the ON/OFF
 * modulated closed loop, and trace replay. Called once by builtin();
 * exposed so tests can build registries of their own.
 */
void registerBuiltinWorkloads(WorkloadRegistry &registry);

/** Everything the registry knows about one workload source. */
struct WorkloadDescriptor : SpecDescriptor<WorkloadSourceFactory>
{
    static constexpr const char *kNoun = "workload source";
    static constexpr const char *kSpecNoun = "workload";
    static constexpr auto registerBuiltins = registerBuiltinWorkloads;

    /**
     * True when arrivals are independent of service: the load axis
     * scales arrival rates instead of think times, and the runner
     * watches for saturation.
     */
    bool openLoop = false;

    /**
     * False for sources that fix their own arrival schedule (trace
     * replay): scenario files must not declare a load axis for them.
     */
    bool takesLoads = true;

    /**
     * Optional pre-run validation against a concrete scenario (file
     * existence, trace capacity vs run length); returns an error
     * message, or "" when the run can proceed. Tools call this through
     * validateWorkloadRun so a doomed cell exits 2 instead of dying
     * mid-fleet.
     */
    std::function<std::string(const ParamValues &,
                              const ScenarioConfig &)>
        validateRun;

    /** @return The catalogue-line suffix. */
    std::string
    suffix() const
    {
        return std::string(openLoop ? " (open loop)" : "") +
               (takesLoads ? "" : " (no load axis)");
    }
};

/**
 * @return The builtin descriptor a spec string's key selects, or
 *         nullptr when the key is unknown (spec need not fully parse).
 */
const WorkloadDescriptor *
workloadDescriptorFor(const std::string &spec_text);

/**
 * Build the workload source a scenario asks for — the runner's side of
 * the seam. Parses config.workloadSpec against the builtin registry,
 * runs pre-run validation, and invokes the factory; any failure is
 * fatal (tools have validated first: the spec text where the scenario
 * parser sets the `source` key, and the run through
 * validateWorkloadRun).
 */
std::unique_ptr<WorkloadSource>
buildWorkloadSource(const ScenarioConfig &config, EventQueue &queue,
                    Bus &bus);

/**
 * Pre-run validation of config.workloadSpec against the scenario's
 * run controls (the tool-facing twin of the fatal checks inside
 * buildWorkloadSource).
 *
 * @return An error message, or "" when the run can proceed.
 */
std::string validateWorkloadRun(const ScenarioConfig &config);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_WORKLOAD_REGISTRY_HH
