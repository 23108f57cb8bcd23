/**
 * @file
 * The benchmark's workloads and the checks on their outputs.
 *
 * A workload is a committed grid file (workloads/<name>.grid, whose
 * comments say why it exists) plus the busarb_sweep flags it runs with.
 * busarb_bench rewrites the grid's [run] values for each run — the seed,
 * and 1/1/0 batches for the set-up measurement — so busarb_sweep only
 * ever sees generated input.
 */

#ifndef BUSARB_BENCH_E2E_WORKLOADS_HH
#define BUSARB_BENCH_E2E_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/** A published value one output row must reproduce. */
struct Anchor
{
    /** CSV row label, e.g. "load=0.25"; every protocol row is checked. */
    std::string label;

    /** The paper's mean wait W for that load. */
    double wait = 0.0;
};

/** One benchmark workload. */
struct Workload
{
    std::string name;

    /**
     * Observer flags for busarb_sweep. An argument starting with '@' is
     * an output file name, placed in the run's output directory.
     */
    std::vector<std::string> observe;

    /** Run as a sharded fleet rather than in-process with --jobs 1. */
    bool sharded = false;

    /** Artifacts whose digests must repeat and match the goldens. */
    std::vector<std::string> digested;

    /** Paper reference values checked on every run (may be empty). */
    std::vector<Anchor> anchors;
};

/** @return Every workload, in the order they are reported. */
const std::vector<Workload> &allWorkloads();

/** @return The workload called `name`, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Size of a grid: what the throughput metric divides by. */
struct GridShape
{
    std::size_t cells = 0;

    /** Warm-up plus measured completions of one cell. */
    double txPerCell = 0.0;
};

/**
 * Replace the values of [run] keys in grid text.
 *
 * @retval false A key in `values` is missing from the [run] section.
 */
bool rewriteRun(const std::string &text,
                const std::map<std::string, std::string> &values,
                std::string &out, std::string &error);

/** Count cells (loads x protocols) and completions per cell. */
bool gridShape(const std::string &text, GridShape &out, std::string &error);

/** @return The whole file, or false if it cannot be read. */
bool readFile(const std::string &path, std::string &out);

/** @return 64-bit FNV-1a of `bytes`. */
std::uint64_t fnv1a(const std::string &bytes);

/** @return `value` as 16 lowercase hex digits. */
std::string hex64(std::uint64_t value);

/** What one busarb_sweep run left in its output directory. */
struct Artifacts
{
    /** The summary CSV text. */
    std::string csv;

    /** Data rows of the CSV (header excluded). */
    std::size_t rows = 0;

    /** FNV-1a of each digested artifact, by file name. */
    std::map<std::string, std::uint64_t> digests;
};

/** Read the CSV and every digested artifact from `dir`. */
bool readArtifacts(const Workload &workload, const std::string &dir,
                   Artifacts &out, std::string &error);

/** Outcome of the paper-anchor check on one CSV. */
struct AnchorCheck
{
    std::size_t checked = 0;
    std::size_t missed = 0;

    /** Largest |W - W_paper| / W_paper over the checked rows. */
    double maxRelErr = 0.0;
};

/**
 * Check every CSV row whose label has an anchor. A row misses when W is
 * outside the paper-anchor tolerance 0.05 + 0.01 W_paper, or absent.
 */
AnchorCheck checkAnchors(const Workload &workload, const std::string &csv);

/**
 * Committed digests for (workload, seed) from golden/<workload>.txt,
 * whose lines read "<seed> <artifact> <hex digest>". Empty when that
 * seed has no goldens.
 */
bool goldenDigests(const std::string &golden_dir, const std::string &workload,
                   std::uint64_t seed,
                   std::map<std::string, std::uint64_t> &out,
                   std::string &error);

} // namespace e2e

#endif // BUSARB_BENCH_E2E_WORKLOADS_HH
