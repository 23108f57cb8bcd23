#include "dist/worker_protocol.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"
#include "dist/shard_plan.hh"
#include "experiment/cli.hh"
#include "experiment/job_pool.hh"
#include "experiment/observer_flags.hh"
#include "experiment/runner.hh"

namespace busarb {

namespace {

/** Consume "<key> " at the start of `line`, leaving the value. */
bool
takeKeyword(const std::string &line, const std::string &key,
            std::string &value)
{
    if (line.compare(0, key.size(), key) != 0 ||
        line.size() <= key.size() || line[key.size()] != ' ')
        return false;
    value = line.substr(key.size() + 1);
    return true;
}

bool
parseSize(const std::string &text, std::size_t &out)
{
    long value = 0;
    if (!parseLong(text, value) || value < 0)
        return false;
    out = static_cast<std::size_t>(value);
    return true;
}

/** @return Directory part of `path` ("." when there is no slash). */
std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

} // namespace

std::string
renderShardFile(std::uint64_t fingerprint, std::size_t shard,
                std::size_t begin, std::size_t end,
                const std::string &scenario_text,
                const SweepTuning &tuning)
{
    std::ostringstream os;
    os << "busarb-shard v" << kShardFileVersion << "\n"
       << "fingerprint " << fingerprintHex(fingerprint) << "\n"
       << "shard " << shard << "\n"
       << "begin " << begin << "\n"
       << "end " << end << "\n"
       << "tuning " << observerKey(tuning) << "\n"
       << "scenario\n"
       << scenario_text;
    return os.str();
}

bool
parseShardFile(const std::string &text, ShardTask &out, std::string &error)
{
    std::istringstream is(text);
    std::string line;
    std::string value;

    if (!std::getline(is, line) ||
        line != "busarb-shard v" + std::to_string(kShardFileVersion)) {
        error = "not a busarb-shard v" +
                std::to_string(kShardFileVersion) + " file";
        return false;
    }

    ShardTask task;
    if (!std::getline(is, line) ||
        !takeKeyword(line, "fingerprint", value) ||
        !parseFingerprintHex(value, task.fingerprint)) {
        error = "bad fingerprint line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "shard", value) ||
        !parseSize(value, task.shard)) {
        error = "bad shard line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "begin", value) ||
        !parseSize(value, task.begin)) {
        error = "bad begin line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "end", value) ||
        !parseSize(value, task.end)) {
        error = "bad end line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "tuning", value) ||
        !parseObserverKey(value, task.tuning, error)) {
        if (error.empty())
            error = "bad tuning line";
        return false;
    }
    if (!std::getline(is, line) || line != "scenario") {
        error = "missing scenario section";
        return false;
    }
    std::ostringstream scenario;
    scenario << is.rdbuf();

    if (!parseScenarioSpec(scenario.str(), task.spec, error)) {
        error = "scenario: " + error;
        return false;
    }
    if (task.begin >= task.end || task.end > task.spec.cellCount()) {
        error = "shard range [" + std::to_string(task.begin) + ", " +
                std::to_string(task.end) +
                ") does not fit the grid of " +
                std::to_string(task.spec.cellCount()) + " cells";
        return false;
    }
    // Re-derive the fingerprint from the parsed content; a mismatch
    // means the file was edited or written by a diverging build, and
    // running it would checkpoint unmergeable results.
    const std::uint64_t derived = sweepFingerprint(
        task.spec.format(), observerKey(task.tuning));
    if (derived != task.fingerprint) {
        error = "fingerprint " + fingerprintHex(task.fingerprint) +
                " does not match the task content (derived " +
                fingerprintHex(derived) + ")";
        return false;
    }
    out = std::move(task);
    return true;
}

int
runWorkerShard(const std::string &program,
               const std::string &shard_path, int jobs)
{
    std::ifstream in(shard_path, std::ios::binary);
    if (!in.is_open()) {
        std::cerr << program << ": cannot read shard file '"
                  << shard_path << "'\n";
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        std::cerr << program << ": error reading '" << shard_path
                  << "'\n";
        return 1;
    }

    ShardTask task;
    std::string error;
    if (!parseShardFile(buffer.str(), task, error)) {
        std::cerr << program << ": " << shard_path << ": " << error
                  << "\n";
        return 2;
    }

    const std::string manifest_path =
        shardManifestPath(dirnameOf(shard_path), task.shard);
    const ManifestHeader header{task.fingerprint, task.shard, task.begin,
                                task.end};
    ManifestContents recovered;
    switch (readManifest(manifest_path, header, recovered, error)) {
    case ManifestReadStatus::kOk:
    case ManifestReadStatus::kMissing:
        break;
    case ManifestReadStatus::kIoError:
        std::cerr << program << ": " << error << "\n";
        return 1;
    case ManifestReadStatus::kCorrupt:
        std::cerr << program << ": " << error << "\n";
        return 2;
    }

    ManifestWriter writer;
    if (!writer.open(manifest_path, header, recovered.validBytes,
                     error)) {
        std::cerr << program << ": " << error << "\n";
        return 1;
    }

    std::vector<std::size_t> todo;
    for (std::size_t cell = task.begin; cell < task.end; ++cell)
        if (recovered.cells.find(cell) == recovered.cells.end())
            todo.push_back(cell);

    // Chunked execution: each chunk runs its cells across the worker's
    // threads, then every finished cell is appended durably before the
    // next chunk starts. A kill therefore loses at most one chunk of
    // compute and zero checkpointed cells; jobs=1 (the fleet default)
    // degenerates to pure cell-at-a-time durability.
    const std::size_t chunk =
        static_cast<std::size_t>(resolveJobCount(jobs));
    for (std::size_t base = 0; base < todo.size(); base += chunk) {
        const std::size_t count =
            std::min(chunk, todo.size() - base);
        std::vector<GridJob> grid;
        grid.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            grid.push_back(sweepCellJob(task.spec, task.tuning, program,
                                        todo[base + i]));
        const std::vector<ScenarioResult> results =
            runScenarioGrid(grid, static_cast<int>(count));
        for (std::size_t i = 0; i < count; ++i) {
            if (!writer.appendCell(todo[base + i],
                                   encodeScenarioResult(results[i]),
                                   error)) {
                std::cerr << program << ": " << error << "\n";
                return 1;
            }
        }
    }
    return 0;
}

} // namespace busarb
