/**
 * @file
 * The protocol catalogue: the one way to build a protocol from the
 * libraries in src/core and src/baseline.
 *
 * Every protocol registers a ProtocolDescriptor (key, one-line summary,
 * paper section, typed parameter schema, build function) with the
 * SpecRegistry engine in experiment/spec_schema.hh. Tools, harnesses,
 * examples and tests all build protocols from spec strings such as
 *
 *   rr:impl=3
 *   fcfs2:window=0.05,bits=3,wrap
 *   wrr:weights=4/1/1/1
 *
 * through ProtocolRegistry::builtin().fromSpec (or, in the tools, the
 * exit-2 wrapper protocolFactoryOrExit). Specs are parsed against the
 * schema, so unknown keys, unknown options, malformed values and
 * out-of-range values are all rejected with a message naming the
 * offending token (and a did-you-mean hint) before any protocol is
 * constructed. Adding a protocol means adding a registration unit to
 * builtin_protocols.cc; the tools, the runner, --list-protocols and the
 * scenario files pick it up without further edits. Only a class
 * outside the library needs a ProtocolFactory lambda instead.
 */

#ifndef BUSARB_EXPERIMENT_PROTOCOL_REGISTRY_HH
#define BUSARB_EXPERIMENT_PROTOCOL_REGISTRY_HH

#include <string>

#include "experiment/runner.hh"
#include "experiment/spec_schema.hh"

namespace busarb {

struct ProtocolDescriptor;

/** The protocol catalogue (see SpecRegistry). */
using ProtocolRegistry = SpecRegistry<ProtocolDescriptor>;

/**
 * A parsed, validated protocol spec — the shared canonical
 * key-plus-params shape from the schema engine.
 */
using ProtocolSpec = SpecInstance;

/**
 * Register every protocol in src/core and src/baseline, plus the
 * canonical `rr`/`fcfs` family aliases, in catalogue order. Called once
 * by builtin(); exposed so tests can build registries of their own.
 */
void registerBuiltinProtocols(ProtocolRegistry &registry);

/**
 * Register the weighted round-robin protocol (`wrr:weights=4/1/1/1`).
 * Its own registration unit: nothing else in the tools or the runner
 * knows wrr exists.
 */
void registerWeightedRoundRobin(ProtocolRegistry &registry);

/** Everything the registry knows about one protocol. */
struct ProtocolDescriptor : SpecDescriptor<ProtocolFactory>
{
    static constexpr const char *kNoun = "protocol";
    static constexpr const char *kSpecNoun = "protocol";
    static constexpr auto registerBuiltins = registerBuiltinProtocols;

    /**
     * True for parameterized family aliases ("rr", "fcfs") that expose
     * an existing protocol under a canonical schema; the catalogue
     * marks them "(parameterized form)".
     */
    bool isAlias = false;

    /** @return The catalogue-line suffix. */
    std::string
    suffix() const
    {
        return isAlias ? " (parameterized form)" : "";
    }
};

/**
 * Tool-facing spec parser: parse `text` against the builtin registry,
 * or print `program: <error>` to stderr and exit 2 (the CLI usage-error
 * convention).
 */
ProtocolFactory protocolFactoryOrExit(const std::string &program,
                                      const std::string &text);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_PROTOCOL_REGISTRY_HH
