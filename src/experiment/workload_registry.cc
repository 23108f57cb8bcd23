#include "experiment/workload_registry.hh"

#include "sim/logging.hh"

namespace busarb {

namespace {

/**
 * Run the pre-run validation hook of a spec the builtin registry has
 * parsed against a concrete scenario.
 *
 * @return An error message, or "" when the run can proceed.
 */
std::string
validateRun(const WorkloadSpec &spec, const ScenarioConfig &config)
{
    const WorkloadDescriptor &desc =
        *WorkloadRegistry::builtin().find(spec.key);
    if (!desc.validateRun)
        return "";
    return desc.validateRun(WorkloadRegistry::resolve(desc, spec),
                            config);
}

} // namespace

const WorkloadDescriptor *
workloadDescriptorFor(const std::string &spec_text)
{
    const auto colon = spec_text.find(':');
    return WorkloadRegistry::builtin().find(spec_text.substr(0, colon));
}

std::unique_ptr<WorkloadSource>
buildWorkloadSource(const ScenarioConfig &config, EventQueue &queue,
                    Bus &bus)
{
    const WorkloadRegistry &registry = WorkloadRegistry::builtin();
    WorkloadSpec spec;
    std::string error;
    if (!registry.parseSpec(config.workloadSpec, spec, error))
        BUSARB_FATAL(error, " in workload spec '", config.workloadSpec,
                     "'");
    const std::string run_error = validateRun(spec, config);
    if (!run_error.empty())
        BUSARB_FATAL(run_error);
    std::unique_ptr<WorkloadSource> source =
        registry.instantiate(spec)(queue, bus, config);
    BUSARB_ASSERT(source != nullptr, "workload factory returned null");
    return source;
}

std::string
validateWorkloadRun(const ScenarioConfig &config)
{
    WorkloadSpec spec;
    std::string error;
    if (!WorkloadRegistry::builtin().parseSpec(config.workloadSpec, spec,
                                               error))
        return error;
    return validateRun(spec, config);
}

} // namespace busarb
