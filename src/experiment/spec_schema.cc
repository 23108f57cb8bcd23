#include "experiment/spec_schema.hh"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "experiment/cli.hh"
#include "obs/export_format.hh"
#include "sim/logging.hh"

namespace busarb {

namespace {

const char *
typeLabel(ParamType type)
{
    switch (type) {
      case ParamType::kInt:
        return "int";
      case ParamType::kDouble:
        return "number";
      case ParamType::kBool:
        return "bool";
      case ParamType::kEnum:
        return "enum";
      case ParamType::kIntList:
        return "int/int/...";
      case ParamType::kString:
        return "text";
    }
    return "?";
}

std::string
joinEnum(const std::vector<std::string> &values)
{
    std::string out;
    for (const auto &v : values) {
        if (!out.empty())
            out += "|";
        out += v;
    }
    return out;
}

/** Render an inclusive numeric range for messages and the table. */
std::string
rangeLabel(const ParamSpec &param)
{
    const auto num = [&](double v) {
        if (param.type == ParamType::kDouble)
            return formatDouble(v);
        return std::to_string(static_cast<long>(v));
    };
    return "[" + num(param.minValue) + ", " + num(param.maxValue) + "]";
}

/** One raw option token of a spec string. */
struct RawOption
{
    std::string name;
    std::string value;
    bool hasValue = false;
};

bool
splitOptions(const std::string &noun, const std::string &text,
             std::vector<RawOption> &out, std::string &error)
{
    std::istringstream is(text);
    std::string token;
    while (std::getline(is, token, ',')) {
        if (token.empty()) {
            error = "empty option in " + noun + " spec";
            return false;
        }
        RawOption option;
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
            option.name = token;
        } else {
            option.name = token.substr(0, eq);
            option.value = token.substr(eq + 1);
            option.hasValue = true;
        }
        out.push_back(option);
    }
    return true;
}

/** @return The sugar expansion of a bare token, or nullptr. */
const SpecSugar *
findSugar(const std::vector<SpecSugar> &sugar, const std::string &token)
{
    for (const auto &s : sugar) {
        if (s.token == token)
            return &s;
    }
    return nullptr;
}

/** Every name a spec option could legally use, for did-you-mean. */
std::vector<std::string>
optionVocabulary(const std::vector<ParamSpec> &params,
                 const std::vector<SpecSugar> &sugar)
{
    std::vector<std::string> names;
    for (const auto &param : params) {
        names.push_back(param.name);
        for (const auto &alias : param.aliases)
            names.push_back(alias);
    }
    for (const auto &s : sugar)
        names.push_back(s.token);
    return names;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Plain Levenshtein; the vocabularies are tiny.
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

std::string
closestMatch(const std::string &given,
             const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t best_distance = 3; // accept distance <= 2
    for (const auto &candidate : candidates) {
        const std::size_t d = editDistance(given, candidate);
        if (d < best_distance) {
            best_distance = d;
            best = candidate;
        }
    }
    return best;
}

std::string
didYouMeanHint(const std::string &given,
               const std::vector<std::string> &candidates)
{
    const std::string match = closestMatch(given, candidates);
    if (match.empty() || match == given)
        return "";
    return "; did you mean '" + match + "'?";
}

std::string
SpecInstance::format() const
{
    std::string out = key;
    bool first = true;
    for (const auto &[name, value] : params) {
        out += first ? ":" : ",";
        first = false;
        out += name + "=" + value;
    }
    return out;
}

const std::string &
ParamValues::raw(const std::string &name, ParamType type) const
{
    BUSARB_ASSERT(params_ != nullptr, "ParamValues without a schema");
    const ParamSpec *param = spec_schema::findParam(*params_, name);
    BUSARB_ASSERT(param != nullptr && param->type == type, owner_,
                  " build read undeclared or mistyped param '", name,
                  "'");
    for (const auto &[n, v] : values_) {
        if (n == param->name)
            return v;
    }
    BUSARB_PANIC("param '", name, "' has no resolved value");
}

long
ParamValues::getInt(const std::string &name) const
{
    return std::strtol(raw(name, ParamType::kInt).c_str(), nullptr, 10);
}

double
ParamValues::getDouble(const std::string &name) const
{
    return std::strtod(raw(name, ParamType::kDouble).c_str(), nullptr);
}

bool
ParamValues::getBool(const std::string &name) const
{
    return raw(name, ParamType::kBool) == "true";
}

std::string
ParamValues::getEnum(const std::string &name) const
{
    return raw(name, ParamType::kEnum);
}

std::vector<long>
ParamValues::getIntList(const std::string &name) const
{
    std::vector<long> values;
    std::istringstream is(raw(name, ParamType::kIntList));
    std::string token;
    while (std::getline(is, token, '/'))
        values.push_back(std::strtol(token.c_str(), nullptr, 10));
    return values;
}

std::string
ParamValues::getString(const std::string &name) const
{
    return raw(name, ParamType::kString);
}

ParamValues
ParamValues::resolve(const std::string &owner,
                     const std::vector<ParamSpec> &params,
                     const SpecInstance &spec)
{
    ParamValues values;
    values.owner_ = owner;
    values.params_ = &params;
    for (const auto &param : params) {
        std::string value = param.defaultValue;
        for (const auto &[name, v] : spec.params) {
            if (name == param.name)
                value = v;
        }
        values.values_.emplace_back(param.name, value);
    }
    return values;
}

ParamSpec
intParam(const std::string &name, long default_value, long min, long max,
         const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kInt;
    param.defaultValue = std::to_string(default_value);
    param.help = help;
    param.hasRange = true;
    param.minValue = static_cast<double>(min);
    param.maxValue = static_cast<double>(max);
    return param;
}

ParamSpec
doubleParam(const std::string &name, const std::string &default_value,
            double min, double max, const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kDouble;
    param.defaultValue = default_value;
    param.help = help;
    param.hasRange = true;
    param.minValue = min;
    param.maxValue = max;
    return param;
}

ParamSpec
boolParam(const std::string &name, bool default_value,
          const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kBool;
    param.defaultValue = default_value ? "true" : "false";
    param.help = help;
    return param;
}

ParamSpec
enumParam(const std::string &name, const std::string &default_value,
          std::vector<std::string> values, const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kEnum;
    param.defaultValue = default_value;
    param.enumValues = std::move(values);
    param.help = help;
    return param;
}

ParamSpec
stringParam(const std::string &name, const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kString;
    param.help = help;
    return param;
}

namespace spec_schema {

const ParamSpec *
findParam(const std::vector<ParamSpec> &params, const std::string &name)
{
    for (const auto &param : params) {
        if (param.name == name)
            return &param;
        for (const auto &alias : param.aliases) {
            if (alias == name)
                return &param;
        }
    }
    return nullptr;
}

bool
canonicalizeValue(const ParamSpec &param, const std::string &raw,
                  std::string &canonical, std::string &error)
{
    switch (param.type) {
      case ParamType::kInt: {
        long value = 0;
        if (!parseLong(raw, value)) {
            error = "option '" + param.name +
                    "' expects an integer, got '" + raw + "'";
            return false;
        }
        if (param.hasRange &&
            (value < static_cast<long>(param.minValue) ||
             value > static_cast<long>(param.maxValue))) {
            error = "option '" + param.name + "' out of range: got '" +
                    raw + "', expected " + rangeLabel(param);
            return false;
        }
        canonical = std::to_string(value);
        return true;
      }
      case ParamType::kDouble: {
        double value = 0.0;
        if (!parseDouble(raw, value)) {
            error = "option '" + param.name +
                    "' expects a number, got '" + raw + "'";
            return false;
        }
        if (param.hasRange &&
            (value < param.minValue || value > param.maxValue)) {
            error = "option '" + param.name + "' out of range: got '" +
                    raw + "', expected " + rangeLabel(param);
            return false;
        }
        canonical = formatDouble(value);
        return true;
      }
      case ParamType::kBool:
        if (raw != "true" && raw != "false") {
            error = "option '" + param.name +
                    "' expects true/false, got '" + raw + "'";
            return false;
        }
        canonical = raw;
        return true;
      case ParamType::kEnum:
        if (std::find(param.enumValues.begin(), param.enumValues.end(),
                      raw) == param.enumValues.end()) {
            error = "option '" + param.name + "' expects one of " +
                    joinEnum(param.enumValues) + ", got '" + raw + "'" +
                    didYouMeanHint(raw, param.enumValues);
            return false;
        }
        canonical = raw;
        return true;
      case ParamType::kIntList: {
        std::string out;
        std::istringstream is(raw);
        std::string token;
        bool any = false;
        while (std::getline(is, token, '/')) {
            long value = 0;
            if (!parseLong(token, value)) {
                error = "option '" + param.name +
                        "' expects a '/'-separated list of integers, "
                        "got '" + raw + "'";
                return false;
            }
            if (param.hasRange &&
                (value < static_cast<long>(param.minValue) ||
                 value > static_cast<long>(param.maxValue))) {
                error = "option '" + param.name +
                        "' element out of range: got '" + token +
                        "', expected " + rangeLabel(param);
                return false;
            }
            if (any)
                out += "/";
            out += std::to_string(value);
            any = true;
        }
        if (!any) {
            error = "option '" + param.name +
                    "' expects at least one integer";
            return false;
        }
        canonical = out;
        return true;
      }
      case ParamType::kString:
        canonical = raw;
        return true;
    }
    BUSARB_PANIC("unreachable");
}

void
validateDefaults(const std::string &owner,
                 const std::vector<ParamSpec> &params)
{
    for (const auto &param : params) {
        std::string canonical;
        std::string error;
        BUSARB_ASSERT(canonicalizeValue(param, param.defaultValue,
                                        canonical, error),
                      owner, " param '", param.name,
                      "' has an invalid default: ", error);
    }
}

bool
parseOptions(const std::string &noun, const std::string &key,
             const std::vector<ParamSpec> &params,
             const std::vector<SpecSugar> &sugar,
             const std::string &options_text, bool had_colon,
             std::vector<std::pair<std::string, std::string>> &out,
             std::string &error)
{
    std::vector<RawOption> options;
    if (had_colon && !splitOptions(noun, options_text, options, error))
        return false;

    // Resolve each option to its canonical (param, value) pair.
    std::vector<std::pair<std::string, std::string>> given;
    for (const auto &option : options) {
        const ParamSpec *param = findParam(params, option.name);
        std::string value = option.value;
        bool has_value = option.hasValue;
        if (param == nullptr && !has_value) {
            if (const SpecSugar *s = findSugar(sugar, option.name)) {
                param = findParam(params, s->param);
                BUSARB_ASSERT(param != nullptr, "sugar '", s->token,
                              "' expands to undeclared param '",
                              s->param, "'");
                value = s->value;
                has_value = true;
            }
        }
        if (param == nullptr) {
            error = "unknown option '" + option.name + "' for " + noun +
                    " '" + key + "'" +
                    didYouMeanHint(option.name,
                                   optionVocabulary(params, sugar));
            return false;
        }
        if (!has_value) {
            // Bare boolean options mean true; everything else needs an
            // explicit value.
            if (param->type != ParamType::kBool) {
                error = "option '" + option.name + "' needs a value";
                return false;
            }
            value = "true";
        }
        std::string canonical;
        if (!canonicalizeValue(*param, value, canonical, error))
            return false;
        for (const auto &[name, v] : given) {
            if (name == param->name) {
                error = "duplicate option '" + param->name + "'";
                return false;
            }
        }
        given.emplace_back(param->name, canonical);
    }

    // Canonical order is declaration order, so equal specs format
    // identically however their options were written.
    out.clear();
    for (const auto &param : params) {
        for (const auto &[name, value] : given) {
            if (name == param.name)
                out.emplace_back(name, value);
        }
    }
    return true;
}

void
revalidateOrDie(const std::string &noun, const std::string &key,
                const std::vector<ParamSpec> &params,
                const SpecInstance &spec)
{
    for (const auto &[name, value] : spec.params) {
        const ParamSpec *param = findParam(params, name);
        if (param == nullptr || param->name != name) {
            BUSARB_FATAL("unknown option '", name, "' for ", noun, " '",
                         key, "'");
        }
        std::string canonical;
        std::string error;
        if (!canonicalizeValue(*param, value, canonical, error))
            BUSARB_FATAL(error, " in ", noun, " spec '", spec.format(),
                         "'");
    }
}

void
printParamRows(std::ostream &os, const std::vector<ParamSpec> &params,
               const std::vector<SpecSugar> &sugar)
{
    for (const auto &param : params) {
        os << "      " << param.name;
        for (std::size_t i = param.name.size(); i < 18; ++i)
            os << " ";
        std::string type = typeLabel(param.type);
        if (param.type == ParamType::kEnum)
            type = joinEnum(param.enumValues);
        os << type;
        for (std::size_t i = type.size(); i < 26; ++i)
            os << " ";
        os << "default "
           << (param.defaultValue.empty() ? "(none)"
                                          : param.defaultValue.c_str());
        if (param.hasRange)
            os << "  range " << rangeLabel(param);
        os << "\n          " << param.help << "\n";
    }
    for (const auto &s : sugar) {
        os << "      " << s.token;
        for (std::size_t i = s.token.size(); i < 18; ++i)
            os << " ";
        os << "short for " << s.param << "=" << s.value << "\n";
    }
}

} // namespace spec_schema

} // namespace busarb
