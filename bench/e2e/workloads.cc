#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace e2e {

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> kWorkloads = {
        // Table 4.2(a): W at loads 0.25 / 1 / 2 / 7.5 with 10 agents.
        {"paper-t41", {}, false, {"out.csv"},
         {{"load=0.25", 1.64}, {"load=1", 2.77}, {"load=2", 6.00},
          {"load=7.5", 9.67}}},
        {"wide64-settle", {}, false, {"out.csv"}, {}},
        {"open-mmpp-observed",
         {"--trace-out", "@trace.bin", "--fairness", "--health",
          "--metrics-out", "@metrics.csv", "--snapshot-out",
          "@snapshots.jsonl", "--snapshot-every", "1000"},
         false, {"out.csv", "metrics.csv"}, {}},
        {"fleet-sharded", {"--trace-out", "@trace.bin"}, true, {"out.csv"},
         {}},
    };
    return kWorkloads;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

namespace {

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    return s.substr(begin, s.find_last_not_of(" \t\r") - begin + 1);
}

/** Split "key = value" lines by [section]; comments are skipped. */
std::map<std::string, std::string>
sectionValues(const std::string &text, const std::string &section)
{
    std::map<std::string, std::string> values;
    std::istringstream is(text);
    std::string line;
    std::string current;
    while (std::getline(is, line)) {
        line = trim(line);
        if (line.empty() || line[0] == '#' || line[0] == ';')
            continue;
        if (line.front() == '[' && line.back() == ']') {
            current = line.substr(1, line.size() - 2);
            continue;
        }
        const auto eq = line.find('=');
        if (current == section && eq != std::string::npos)
            values[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
    }
    return values;
}

std::vector<std::string>
splitFields(const std::string &text, char sep)
{
    std::vector<std::string> fields;
    std::istringstream is(text);
    std::string field;
    if (sep == ' ') {
        while (is >> field)
            fields.push_back(field);
    } else {
        while (std::getline(is, field, sep))
            fields.push_back(field);
    }
    return fields;
}

} // namespace

bool
rewriteRun(const std::string &text,
           const std::map<std::string, std::string> &values,
           std::string &out, std::string &error)
{
    std::istringstream is(text);
    std::string line;
    std::string section;
    std::set<std::string> replaced;
    out.clear();
    while (std::getline(is, line)) {
        const std::string t = trim(line);
        if (!t.empty() && t.front() == '[' && t.back() == ']')
            section = t.substr(1, t.size() - 2);
        const auto eq = t.find('=');
        if (section == "run" && eq != std::string::npos && t[0] != '#') {
            const std::string key = trim(t.substr(0, eq));
            const auto it = values.find(key);
            if (it != values.end()) {
                line = key + " = " + it->second;
                replaced.insert(key);
            }
        }
        out += line + "\n";
    }
    for (const auto &[key, value] : values) {
        if (!replaced.count(key)) {
            error = "grid has no [run] " + key + " line to rewrite";
            return false;
        }
    }
    return true;
}

bool
gridShape(const std::string &text, GridShape &out, std::string &error)
{
    auto run = sectionValues(text, "run");
    auto sweep = sectionValues(text, "sweep");
    const auto loads = splitFields(sweep["loads"], ' ');
    const auto protocols = splitFields(sweep["protocols"], ' ');
    for (const auto &load : loads) {
        if (load.find(':') != std::string::npos) {
            error = "load ranges (" + load + ") are not counted; list "
                    "the loads";
            return false;
        }
    }
    double batches = 0.0;
    double batch_size = 0.0;
    double warmup = 0.0;
    if (std::sscanf(run["batches"].c_str(), "%lf", &batches) != 1 ||
        std::sscanf(run["batch-size"].c_str(), "%lf", &batch_size) != 1 ||
        std::sscanf(run["warmup"].c_str(), "%lf", &warmup) != 1 ||
        loads.empty() || protocols.empty()) {
        error = "grid needs [run] batches, batch-size, warmup and [sweep] "
                "loads, protocols";
        return false;
    }
    out.cells = loads.size() * protocols.size();
    out.txPerCell = warmup + batches * batch_size;
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return static_cast<bool>(in) || in.eof();
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
readArtifacts(const Workload &workload, const std::string &dir,
              Artifacts &out, std::string &error)
{
    out = Artifacts{};
    for (const auto &name : workload.digested) {
        std::string bytes;
        if (!readFile(dir + "/" + name, bytes)) {
            error = "cannot read " + dir + "/" + name;
            return false;
        }
        out.digests[name] = fnv1a(bytes);
        if (name == "out.csv")
            out.csv = std::move(bytes);
    }
    for (const char c : out.csv)
        out.rows += c == '\n';
    if (out.rows == 0) {
        error = "empty CSV in " + dir;
        return false;
    }
    --out.rows; // header
    return true;
}

AnchorCheck
checkAnchors(const Workload &workload, const std::string &csv)
{
    AnchorCheck check;
    if (workload.anchors.empty())
        return check;
    std::istringstream is(csv);
    std::string line;
    std::getline(is, line);
    const auto header = splitFields(line, ',');
    std::size_t label_col = header.size();
    std::size_t wait_col = header.size();
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == "label")
            label_col = i;
        if (header[i] == "wait_mean")
            wait_col = i;
    }
    std::map<std::string, std::size_t> seen;
    while (std::getline(is, line)) {
        const auto fields = splitFields(line, ',');
        if (label_col >= fields.size() || wait_col >= fields.size())
            continue;
        for (const auto &anchor : workload.anchors) {
            if (fields[label_col] != anchor.label)
                continue;
            ++seen[anchor.label];
            ++check.checked;
            double w = 0.0;
            if (std::sscanf(fields[wait_col].c_str(), "%lf", &w) != 1 ||
                std::fabs(w - anchor.wait) > 0.05 + 0.01 * anchor.wait) {
                ++check.missed;
            }
            check.maxRelErr = std::max(
                check.maxRelErr, std::fabs(w - anchor.wait) / anchor.wait);
        }
    }
    for (const auto &anchor : workload.anchors) {
        if (!seen.count(anchor.label))
            ++check.missed;
    }
    return check;
}

bool
goldenDigests(const std::string &golden_dir, const std::string &workload,
              std::uint64_t seed, std::map<std::string, std::uint64_t> &out,
              std::string &error)
{
    out.clear();
    const std::string path = golden_dir + "/" + workload + ".txt";
    std::string text;
    if (!readFile(path, text))
        return true; // no goldens for this workload
    std::istringstream is(text);
    std::string line;
    int number = 0;
    while (std::getline(is, line)) {
        ++number;
        line = trim(line);
        if (line.empty() || line[0] == '#')
            continue;
        unsigned long long line_seed = 0;
        unsigned long long digest = 0;
        char artifact[128];
        if (std::sscanf(line.c_str(), "%llu %127s %llx", &line_seed,
                        artifact, &digest) != 3) {
            error = path + ":" + std::to_string(number) +
                    ": expected '<seed> <artifact> <hex digest>'";
            return false;
        }
        if (line_seed == seed)
            out[artifact] = digest;
    }
    return true;
}

} // namespace e2e
