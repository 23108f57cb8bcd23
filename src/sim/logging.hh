/**
 * @file
 * Error-reporting helpers in the spirit of gem5's base/logging.hh.
 *
 * panic()  - an internal invariant was violated; this is a simulator bug.
 *            Aborts so a debugger / core dump can inspect the state.
 * fatal()  - the simulation cannot continue because of a user error (bad
 *            configuration, invalid arguments). Exits with status 1.
 * warn()   - something suspicious but survivable happened.
 * inform() - a status message with no negative connotation.
 */

#ifndef BUSARB_SIM_LOGGING_HH
#define BUSARB_SIM_LOGGING_HH

#include <functional>
#include <sstream>
#include <string>

namespace busarb {

/**
 * Install a hook run (once) by panic() just before aborting, after the
 * error banner is printed. The hook is thread-local, so each JobPool
 * worker can register its own diagnostic dump (e.g. a flight-recorder
 * tail — see obs/flight_recorder.hh) without racing other scenarios.
 * Passing nullptr uninstalls. The hook is cleared before it runs, so a
 * panic inside the hook cannot recurse.
 *
 * @param hook The callback, or nullptr to uninstall.
 */
void setPanicHook(std::function<void()> hook);

namespace detail {

/** Terminate with an internal-error banner. Never returns. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate with a user-error banner. Never returns. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning banner to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

/** Print an informational message to stderr. */
void informImpl(const std::string &msg);

/** Fold a list of stream-insertable values into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

} // namespace detail

} // namespace busarb

/** Report an unrecoverable internal error (simulator bug) and abort. */
#define BUSARB_PANIC(...)                                                  \
    ::busarb::detail::panicImpl(__FILE__, __LINE__,                        \
        ::busarb::detail::formatMessage(__VA_ARGS__))

/** Report an unrecoverable user error and exit(1). */
#define BUSARB_FATAL(...)                                                  \
    ::busarb::detail::fatalImpl(__FILE__, __LINE__,                        \
        ::busarb::detail::formatMessage(__VA_ARGS__))

/** Report a survivable anomaly. */
#define BUSARB_WARN(...)                                                   \
    ::busarb::detail::warnImpl(__FILE__, __LINE__,                         \
        ::busarb::detail::formatMessage(__VA_ARGS__))

/** Report normal operating status. */
#define BUSARB_INFORM(...)                                                 \
    ::busarb::detail::informImpl(                                          \
        ::busarb::detail::formatMessage(__VA_ARGS__))

/** Panic if an invariant does not hold. Active in all build types. */
#define BUSARB_ASSERT(cond, ...)                                           \
    do {                                                                   \
        if (!(cond)) {                                                     \
            BUSARB_PANIC("assertion '" #cond "' failed: ",                 \
                         ::busarb::detail::formatMessage(__VA_ARGS__));    \
        }                                                                  \
    } while (0)

#endif // BUSARB_SIM_LOGGING_HH
