/**
 * @file
 * A small command-line flag parser for the tools and harnesses.
 *
 * Supports `--name value`, `--name=value`, and boolean `--name` flags,
 * with typed accessors, defaults, and generated --help text. No
 * external dependencies.
 */

#ifndef BUSARB_EXPERIMENT_CLI_HH
#define BUSARB_EXPERIMENT_CLI_HH

#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace busarb {

/**
 * Parse a whole string as a base-10 integer.
 *
 * @param text The candidate text.
 * @param out Receives the value on success.
 * @retval false Empty input, trailing garbage, no digits, or a value
 *         outside the range of long.
 */
bool parseLong(const std::string &text, long &out);

/**
 * Parse a whole string as a floating-point number.
 *
 * @param text The candidate text.
 * @param out Receives the value on success.
 * @retval false Empty input, trailing garbage, or no number.
 */
bool parseDouble(const std::string &text, double &out);

/**
 * Parse one token of a numeric list flag, exiting on failure.
 *
 * On a malformed token, reports `program: --flag: bad number 'token'`
 * on stderr and exits the process with status 2 (the CLI usage-error
 * convention) instead of letting std::stod abort with an uncaught
 * exception.
 *
 * @param program Program name for the error message.
 * @param flag Flag name (without dashes) for the error message.
 * @param token The candidate token.
 * @return The parsed value.
 */
double parseDoubleTokenOrExit(const std::string &program,
                              const std::string &flag,
                              const std::string &token);

/**
 * Validate an output path's parent directory up front, exiting on
 * failure.
 *
 * Artifact flags (--metrics-out, --trace-out, --snapshot-out, ...)
 * that point into a missing directory used to fail with a bare stream
 * error after the whole run had already completed. This check runs
 * before any simulation: if the path names a parent directory that
 * does not exist (or is not a directory), it reports
 * `program: --flag: directory 'dir' does not exist (cannot write
 * 'path')` on stderr and exits with status 2, the CLI usage-error
 * convention. An empty path (flag unset) passes.
 *
 * @param program Program name for the error message.
 * @param flag Flag name (without dashes) for the error message.
 * @param path The output path to validate.
 */
void requireParentDirOrExit(const std::string &program,
                            const std::string &flag,
                            const std::string &path);

/**
 * Write an artifact file through `write` and print `wrote <what> to
 * <path>`; an empty path (flag unset) writes nothing. Failures print
 * `program: cannot write path` or `program: error writing path` on
 * stderr.
 *
 * @retval false The file could not be opened or written.
 */
bool writeArtifact(const std::string &program, const std::string &path,
                   const std::string &what,
                   const std::function<void(std::ostream &)> &write);

/**
 * Declarative command-line parser.
 *
 * Declare flags with add*Flag, then parse(). Unknown flags and type
 * errors are reported and fail the parse.
 */
class ArgParser
{
  public:
    /**
     * @param program Program name for the usage line.
     * @param summary One-line description printed by --help.
     */
    ArgParser(std::string program, std::string summary);

    /** Declare a string flag. */
    void addStringFlag(const std::string &name,
                       const std::string &default_value,
                       const std::string &help);

    /** Declare an integer flag. */
    void addIntFlag(const std::string &name, long default_value,
                    const std::string &help);

    /** Declare a floating-point flag. */
    void addDoubleFlag(const std::string &name, double default_value,
                       const std::string &help);

    /** Declare a boolean flag (present = true, or --name=false). */
    void addBoolFlag(const std::string &name, bool default_value,
                     const std::string &help);

    /**
     * Parse argv.
     *
     * @param argc Argument count.
     * @param argv Argument vector.
     * @retval true Parse succeeded (and --help was not requested).
     * @retval false --help was printed or an error was reported; the
     *         caller should exit (exitCode() tells how).
     */
    bool parse(int argc, const char *const *argv);

    /** @return 0 after --help, 2 after a parse error, 0 otherwise. */
    int exitCode() const { return exitCode_; }

    /** Typed accessors (fatal on unknown name or wrong type). */
    std::string getString(const std::string &name) const;
    long getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /**
     * @return The value as parsed, in canonical text: an integer or a
     *         number as it prints (`0100` is `100`, `2.0` is `2`),
     *         true/false, or a string verbatim.
     */
    std::string parsedText(const std::string &name) const;

    /**
     * @retval true The flag appeared explicitly on the command line
     *         (even if set to its default value).
     */
    bool wasSet(const std::string &name) const;

    /** @retval true A flag of this name was declared. */
    bool declares(const std::string &name) const
    {
        return flags_.count(name) != 0;
    }

    /** Positional arguments left after flag parsing. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Render the --help text. */
    std::string helpText() const;

  private:
    enum class Kind { kString, kInt, kDouble, kBool };

    struct Flag
    {
        Kind kind;
        std::string help;
        std::string value; // current (default or parsed), as text
        std::string defaultValue;
        bool explicitlySet = false;
    };

    std::string program_;
    std::string summary_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> declared_; // in declaration order
    std::vector<std::string> positional_;
    int exitCode_ = 0;

    void declare(const std::string &name, Kind kind,
                 const std::string &default_value,
                 const std::string &help);

    const Flag &find(const std::string &name, Kind kind) const;

    /** @return False on malformed value for the flag's type. */
    bool validate(const std::string &name, Flag &flag,
                  const std::string &value);
};

/**
 * Read an integer flag, exiting on a value outside [min_value,
 * max_value].
 *
 * Integer flags parse as long; this is where a value meets the range
 * of the field it sets, so a value the field cannot hold is rejected
 * instead of wrapped or clamped: `program: --flag must be >= min, got
 * V` (or `<= max`) on stderr, exit status 2.
 *
 * @param program Program name for the error message.
 * @param parser Parsed arguments declaring `flag` as an integer flag.
 * @param flag Flag name (without dashes).
 * @param min_value Smallest accepted value (default: the int minimum).
 * @param max_value Largest accepted value (default: the int maximum).
 * @return The value.
 */
long intFlagOrExit(const std::string &program, const ArgParser &parser,
                   const std::string &flag,
                   long min_value = std::numeric_limits<int>::min(),
                   long max_value = std::numeric_limits<int>::max());

} // namespace busarb

#endif // BUSARB_EXPERIMENT_CLI_HH
