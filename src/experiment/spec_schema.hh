/**
 * @file
 * The spec-string engine behind both catalogues: the protocols and the
 * workload sources.
 *
 * A catalogue entry is a descriptor — key, one-line summary, reference,
 * and a typed parameter schema with defaults, ranges, enums, aliases
 * and bare-token sugar — plus a build function. SpecRegistry is the one
 * registry over such descriptors: it parses `key[:option=value,...]`
 * strings against the schemas, canonicalizes values so format()
 * round-trips, builds factories, and prints the --list-* tables.
 * ProtocolRegistry and WorkloadRegistry are aliases of it; each
 * descriptor type states only what differs between the catalogues —
 * the nouns its diagnostics use, its catalogue-line suffix, and any
 * fields of its own.
 */

#ifndef BUSARB_EXPERIMENT_SPEC_SCHEMA_HH
#define BUSARB_EXPERIMENT_SPEC_SCHEMA_HH

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace busarb {

/** Value type of one declared spec parameter. */
enum class ParamType {
    kInt,
    kDouble,
    kBool,
    kEnum,
    kIntList, // '/'-separated, e.g. weights=4/1/1/1
    kString,  // opaque text, e.g. trace file paths
};

/** One declared parameter of a registry descriptor. */
struct ParamSpec
{
    /** Canonical option name, as written in spec strings. */
    std::string name;

    ParamType type = ParamType::kInt;

    /** Default, as canonical text ("0", "false", "saturate", "1"). */
    std::string defaultValue;

    /** One-line description for --list-* catalogue tables. */
    std::string help;

    /**
     * Inclusive numeric range for kInt/kDouble (per element for
     * kIntList); only enforced and displayed when hasRange is set.
     */
    bool hasRange = false;
    double minValue = 0.0;
    double maxValue = 0.0;

    /** Accepted values for kEnum, in display order. */
    std::vector<std::string> enumValues;

    /** Alternate accepted spellings ("counter_bits" for "bits"). */
    std::vector<std::string> aliases;
};

/** @name Parameter builders for registration units. */
/** @{ */
ParamSpec intParam(const std::string &name, long default_value, long min,
                   long max, const std::string &help);
ParamSpec doubleParam(const std::string &name,
                      const std::string &default_value, double min,
                      double max, const std::string &help);
ParamSpec boolParam(const std::string &name, bool default_value,
                    const std::string &help);
ParamSpec enumParam(const std::string &name,
                    const std::string &default_value,
                    std::vector<std::string> values,
                    const std::string &help);
ParamSpec stringParam(const std::string &name, const std::string &help);
/** @} */

/**
 * A bare spec token that expands to `param=value` — legacy sugar such
 * as fcfs's `wrap` meaning `overflow=wrap`.
 */
struct SpecSugar
{
    std::string token;
    std::string param;
    std::string value;
};

/**
 * A parsed, validated spec: the key plus the explicitly given
 * parameters in canonical order with canonical value text. format() of
 * a parsed spec re-parses to an equal spec (round-trip property).
 */
struct SpecInstance
{
    std::string key;
    std::vector<std::pair<std::string, std::string>> params;

    /** @return Canonical spec text ("fcfs2:bits=3,overflow=wrap"). */
    std::string format() const;

    bool
    operator==(const SpecInstance &other) const
    {
        return key == other.key && params == other.params;
    }

    bool
    operator!=(const SpecInstance &other) const
    {
        return !(*this == other);
    }
};

/**
 * Validated parameter values handed to a descriptor's build function:
 * the declared defaults overlaid with the spec's explicit settings.
 */
class ParamValues
{
  public:
    long getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;
    std::string getEnum(const std::string &name) const;
    std::vector<long> getIntList(const std::string &name) const;
    std::string getString(const std::string &name) const;

    /**
     * Overlay a descriptor's defaults with a spec's explicit params.
     *
     * @param owner Diagnostic label ("protocol 'rr1'") for misuse
     *        messages.
     */
    static ParamValues resolve(const std::string &owner,
                               const std::vector<ParamSpec> &params,
                               const SpecInstance &spec);

  private:
    std::string owner_;
    const std::vector<ParamSpec> *params_ = nullptr;
    std::vector<std::pair<std::string, std::string>> values_;

    const std::string &raw(const std::string &name,
                           ParamType type) const;
};

namespace spec_schema {

/** @return The ParamSpec `name` resolves to (aliases included). */
const ParamSpec *findParam(const std::vector<ParamSpec> &params,
                           const std::string &name);

/**
 * Validate one raw value against its ParamSpec and canonicalize it.
 */
bool canonicalizeValue(const ParamSpec &param, const std::string &raw,
                       std::string &canonical, std::string &error);

/**
 * Assert every declared default canonicalizes — registration-time
 * schema sanity, fatal on violation.
 *
 * @param owner Diagnostic label ("protocol 'rr1'").
 */
void validateDefaults(const std::string &owner,
                      const std::vector<ParamSpec> &params);

/**
 * Parse the option text after a spec's `key:` against a schema,
 * producing explicit params in canonical declaration order.
 *
 * @param noun What kind of thing the schema describes ("protocol"),
 *        used verbatim in diagnostics.
 * @param key The already-resolved spec key, for diagnostics.
 * @param options_text The text after the colon (may be empty); pass
 *        had_colon=false when the spec had no colon at all.
 * @param out Receives the canonical explicit params on success.
 * @param error Receives a message naming the offending token (with a
 *        did-you-mean hint where one is close) on failure.
 * @retval false The options did not validate.
 */
bool parseOptions(const std::string &noun, const std::string &key,
                  const std::vector<ParamSpec> &params,
                  const std::vector<SpecSugar> &sugar,
                  const std::string &options_text, bool had_colon,
                  std::vector<std::pair<std::string, std::string>> &out,
                  std::string &error);

/**
 * Re-validate a hand-built spec's explicit params against the schema,
 * fatal on violation (the instantiate() safety net).
 */
void revalidateOrDie(const std::string &noun, const std::string &key,
                     const std::vector<ParamSpec> &params,
                     const SpecInstance &spec);

/**
 * Print one descriptor's parameter and sugar rows for a catalogue
 * table (the shared layout under each --list-* entry).
 */
void printParamRows(std::ostream &os,
                    const std::vector<ParamSpec> &params,
                    const std::vector<SpecSugar> &sugar);

} // namespace spec_schema

/**
 * @return The closest candidate within edit distance 2 of `given`, or
 *         "" when nothing is close (did-you-mean support).
 */
std::string closestMatch(const std::string &given,
                         const std::vector<std::string> &candidates);

/** @return "; did you mean 'X'?" via closestMatch, or "". */
std::string didYouMeanHint(const std::string &given,
                           const std::vector<std::string> &candidates);

/**
 * The fields every catalogue entry has. A descriptor type derives from
 * it and adds:
 *   - kNoun ("workload source"), which names an entry in diagnostics
 *     and, with an "s", titles the catalogue;
 *   - kSpecNoun ("workload"), which names its spec strings ("bad
 *     workload spec");
 *   - registerBuiltins, the function that fills builtin();
 *   - suffix(), the text that ends the entry's catalogue line;
 *   - any fields of its own.
 */
template <typename FactoryT>
struct SpecDescriptor
{
    using Factory = FactoryT;

    /** Spec-string key ("rr1", "fcfs", "open", ...). */
    std::string key;

    /** One-line summary for the --list-* catalogue. */
    std::string summary;

    /** Paper section ("§3.1"), or a citation for extensions. */
    std::string reference;

    /** Declared parameters, in canonical (display and format) order. */
    std::vector<ParamSpec> params;

    /** Bare-token sugar accepted in spec strings. */
    std::vector<SpecSugar> sugar;

    /** Turn validated values into a factory. */
    std::function<Factory(const ParamValues &)> build;

    /**
     * Optional cross-parameter validation; returns an error message,
     * or "" when the combination is legal.
     */
    std::function<std::string(const ParamValues &)> validate;
};

/**
 * A catalogue: descriptors in registration order, looked up by key.
 * builtin() holds every entry in the library.
 */
template <typename Descriptor>
class SpecRegistry
{
  public:
    using Factory = typename Descriptor::Factory;

    /** Register a descriptor; fatal if the key is already taken. */
    void add(Descriptor desc);

    /** @return The descriptor for `key`, or nullptr. */
    const Descriptor *find(const std::string &key) const;

    /** @return All descriptors, in registration order. */
    const std::vector<Descriptor> &all() const { return entries_; }

    /**
     * Parse and validate a spec string against the registered schemas.
     *
     * @param text The spec string ("fcfs2:window=0.05,bits=3,wrap").
     * @param out Receives the canonicalized spec on success.
     * @param error Receives a message naming the offending token (with
     *        a did-you-mean hint where one is close) on failure.
     * @retval false The spec did not validate.
     */
    bool parseSpec(const std::string &text, SpecInstance &out,
                   std::string &error) const;

    /**
     * parseSpec, or print `program: bad <noun> spec '<text>': <error>`
     * to stderr and exit 2 (the CLI usage-error convention).
     */
    SpecInstance parseSpecOrExit(const std::string &program,
                                 const std::string &text) const;

    /**
     * Build the factory a validated spec describes.
     *
     * @param spec A spec from parseSpec (a hand-built spec that does
     *        not validate is a fatal error).
     */
    Factory instantiate(const SpecInstance &spec) const;

    /**
     * Parse + instantiate, fatal on error (library convenience; tools
     * use parseSpecOrExit for the exit-2 convention).
     */
    Factory fromSpec(const std::string &text) const;

    /** @return A descriptor's defaults overlaid with spec's params. */
    static ParamValues resolve(const Descriptor &desc,
                               const SpecInstance &spec);

    /**
     * Print the catalogue — key, reference, summary, and every
     * parameter with type, default and range — generated entirely from
     * the descriptors (--list-protocols, --list-workloads).
     */
    void printTable(std::ostream &os) const;

    /** @return The registry holding every built-in entry. */
    static const SpecRegistry &builtin();

  private:
    std::vector<Descriptor> entries_;
};

template <typename Descriptor>
void
SpecRegistry<Descriptor>::add(Descriptor desc)
{
    BUSARB_ASSERT(!desc.key.empty(), Descriptor::kSpecNoun,
                  " descriptor without a key");
    BUSARB_ASSERT(static_cast<bool>(desc.build), Descriptor::kNoun, " '",
                  desc.key, "' registered without a build function");
    BUSARB_ASSERT(find(desc.key) == nullptr, Descriptor::kNoun, " key '",
                  desc.key, "' registered twice");
    spec_schema::validateDefaults(
        std::string(Descriptor::kNoun) + " '" + desc.key + "'",
        desc.params);
    entries_.push_back(std::move(desc));
}

template <typename Descriptor>
const Descriptor *
SpecRegistry<Descriptor>::find(const std::string &key) const
{
    for (const auto &desc : entries_) {
        if (desc.key == key)
            return &desc;
    }
    return nullptr;
}

template <typename Descriptor>
bool
SpecRegistry<Descriptor>::parseSpec(const std::string &text,
                                    SpecInstance &out,
                                    std::string &error) const
{
    const auto colon = text.find(':');
    const std::string key = text.substr(0, colon);
    const Descriptor *desc = find(key);
    if (desc == nullptr) {
        std::vector<std::string> keys;
        for (const auto &d : entries_)
            keys.push_back(d.key);
        error = std::string("unknown ") + Descriptor::kNoun + " key '" +
                key + "'" + didYouMeanHint(key, keys);
        return false;
    }

    SpecInstance spec;
    spec.key = key;
    const bool had_colon = colon != std::string::npos;
    const std::string options =
        had_colon ? text.substr(colon + 1) : std::string();
    if (!spec_schema::parseOptions(Descriptor::kNoun, key, desc->params,
                                   desc->sugar, options, had_colon,
                                   spec.params, error))
        return false;

    if (desc->validate) {
        const std::string message = desc->validate(resolve(*desc, spec));
        if (!message.empty()) {
            error = message;
            return false;
        }
    }
    out = std::move(spec);
    return true;
}

template <typename Descriptor>
SpecInstance
SpecRegistry<Descriptor>::parseSpecOrExit(const std::string &program,
                                          const std::string &text) const
{
    SpecInstance spec;
    std::string error;
    if (!parseSpec(text, spec, error)) {
        std::cerr << program << ": bad " << Descriptor::kSpecNoun
                  << " spec '" << text << "': " << error << "\n";
        std::exit(2);
    }
    return spec;
}

template <typename Descriptor>
ParamValues
SpecRegistry<Descriptor>::resolve(const Descriptor &desc,
                                  const SpecInstance &spec)
{
    return ParamValues::resolve(
        std::string(Descriptor::kNoun) + " '" + desc.key + "'",
        desc.params, spec);
}

template <typename Descriptor>
typename SpecRegistry<Descriptor>::Factory
SpecRegistry<Descriptor>::instantiate(const SpecInstance &spec) const
{
    const Descriptor *desc = find(spec.key);
    if (desc == nullptr)
        BUSARB_FATAL("unknown ", Descriptor::kNoun, " key '", spec.key,
                     "'");
    // Re-validate so hand-built specs cannot smuggle bad values past
    // the schema.
    spec_schema::revalidateOrDie(Descriptor::kNoun, spec.key,
                                 desc->params, spec);
    const ParamValues values = resolve(*desc, spec);
    if (desc->validate) {
        const std::string message = desc->validate(values);
        if (!message.empty())
            BUSARB_FATAL(message, " in ", Descriptor::kSpecNoun,
                         " spec '", spec.format(), "'");
    }
    return desc->build(values);
}

template <typename Descriptor>
typename SpecRegistry<Descriptor>::Factory
SpecRegistry<Descriptor>::fromSpec(const std::string &text) const
{
    SpecInstance spec;
    std::string error;
    if (!parseSpec(text, spec, error))
        BUSARB_FATAL(error, " in ", Descriptor::kSpecNoun, " spec '",
                     text, "'");
    return instantiate(spec);
}

template <typename Descriptor>
void
SpecRegistry<Descriptor>::printTable(std::ostream &os) const
{
    os << Descriptor::kNoun << "s (spec grammar: key[:option=value,...]):\n";
    for (const auto &desc : entries_) {
        os << "\n  " << desc.key;
        for (std::size_t i = desc.key.size(); i < 14; ++i)
            os << " ";
        // At least one space, so an 8-byte citation stays separate.
        os << desc.reference << ' ';
        for (std::size_t i = desc.reference.size() + 1; i < 8; ++i)
            os << " ";
        os << desc.summary << desc.suffix() << "\n";
        spec_schema::printParamRows(os, desc.params, desc.sugar);
    }
}

template <typename Descriptor>
const SpecRegistry<Descriptor> &
SpecRegistry<Descriptor>::builtin()
{
    // Built on first use; static-initializer self-registration would be
    // dropped by the static-library linker, so registration is an
    // explicit call chain instead.
    static const SpecRegistry *registry = [] {
        auto *r = new SpecRegistry();
        Descriptor::registerBuiltins(*r);
        return r;
    }();
    return *registry;
}

} // namespace busarb

#endif // BUSARB_EXPERIMENT_SPEC_SCHEMA_HH
