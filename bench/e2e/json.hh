/**
 * @file
 * Just enough JSON for busarb_bench: a parser for BENCHMARK.json,
 * the per-layer probe's result line and saved run files, plus helpers to
 * write numbers and strings.
 */

#ifndef BUSARB_BENCH_E2E_JSON_HH
#define BUSARB_BENCH_E2E_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace e2e {

/** One parsed JSON value. Objects keep their key order. */
struct Json
{
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    /** @return The member named `key`, or nullptr (also for non-objects). */
    const Json *find(const std::string &key) const;
};

/**
 * Parse one JSON document.
 *
 * @retval false `text` is not a single well-formed JSON value; `error`
 *         says where.
 */
bool parseJson(const std::string &text, Json &out, std::string &error);

/** @return `value` in the shortest form that reads back exactly. */
std::string jsonNumber(double value);

/** @return `text` as a quoted, escaped JSON string. */
std::string jsonString(const std::string &text);

} // namespace e2e

#endif // BUSARB_BENCH_E2E_JSON_HH
