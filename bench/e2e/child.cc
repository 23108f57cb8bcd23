#include "child.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace e2e {

namespace {

volatile sig_atomic_t g_child = 0;
volatile sig_atomic_t g_timedOut = 0;

extern "C" void
onAlarm(int)
{
    if (g_child > 0) {
        g_timedOut = 1;
        kill(-g_child, SIGKILL);
    }
}

} // namespace

void
becomeSubreaper()
{
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0);
}

ChildRun
runChild(const std::vector<std::string> &argv, const std::string &log_path,
         unsigned timeout_seconds)
{
    ChildRun run;
    // Everything the child needs is prepared before fork: between fork
    // and exec it only calls async-signal-safe functions.
    std::vector<char *> args;
    for (const auto &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const int fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
             0644);
    if (fd < 0) {
        run.status = "cannot open " + log_path + ": " + std::strerror(errno);
        return run;
    }
    struct sigaction action = {};
    action.sa_handler = onAlarm;
    sigemptyset(&action.sa_mask);
    sigaction(SIGALRM, &action, nullptr);

    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid == 0) {
        setpgid(0, 0);
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    close(fd);
    if (pid < 0) {
        run.status = std::string("fork: ") + std::strerror(errno);
        return run;
    }
    // Also set from this side, so the group exists before any kill.
    setpgid(pid, pid);
    g_timedOut = 0;
    g_child = pid;
    alarm(timeout_seconds);
    int status = 0;
    struct rusage usage = {};
    pid_t got = 0;
    do {
        got = wait4(pid, &status, 0, &usage);
    } while (got < 0 && errno == EINTR);
    const auto end = std::chrono::steady_clock::now();
    alarm(0);
    g_child = 0;

    // Workers orphaned by a killed child are re-parented to this process
    // (becomeSubreaper); wait for every one of them.
    for (;;) {
        if (waitpid(-1, nullptr, 0) > 0 || errno == EINTR)
            continue;
        break;
    }

    run.wallSeconds = std::chrono::duration<double>(end - start).count();
    run.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (got < 0) {
        run.status = std::string("wait4: ") + std::strerror(errno);
    } else if (g_timedOut) {
        run.status = "killed after " + std::to_string(timeout_seconds) +
                     " s timeout";
    } else if (WIFEXITED(status)) {
        run.ok = WEXITSTATUS(status) == 0;
        run.status = "exit " + std::to_string(WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
        run.status = "signal " + std::to_string(WTERMSIG(status));
    }
    return run;
}

} // namespace e2e
