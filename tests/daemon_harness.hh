/**
 * @file
 * Process harness for the daemon end-to-end tests: spawn a daemon in a
 * process group of its own, kill the whole group when a test ends
 * early, find a supervisor's children, pick ports, read what daemons
 * write and poll what they answer.
 *
 * Every daemon a test starts binds port 0 and reports its port through
 * --port-file where it can. A port that a command line must name up
 * front (supervisord's --solver-port, a primary's --replication-port)
 * comes from freeUdpPorts(), never from the test's pid.
 */

#ifndef MERCURY_TESTS_DAEMON_HARNESS_HH
#define MERCURY_TESTS_DAEMON_HARNESS_HH

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/udp.hh"
#include "sensor/client.hh"

// tests/CMakeLists.txt points these at the build's binaries and the
// source tree's configs.
#ifndef MERCURY_CONFIG_DIR
#define MERCURY_CONFIG_DIR "configs"
#endif
#ifndef MERCURY_SOLVERD_BIN
#define MERCURY_SOLVERD_BIN "mercury_solverd"
#endif
#ifndef MERCURY_SUPERVISORD_BIN
#define MERCURY_SUPERVISORD_BIN "mercury_supervisord"
#endif

namespace mercury {
namespace test {

/** A scratch file name unique to this test process. */
inline std::string
tempPath(const std::string &tag)
{
    return "/tmp/mercury_e2e." + tag + "." + std::to_string(::getpid());
}

/**
 * fork/exec @p command (argv[0] is a path) as the leader of a new
 * process group, which its own children join. Both sides call setpgid,
 * so the group exists before either one goes on.
 */
inline pid_t
spawn(const std::vector<std::string> &command)
{
    pid_t pid = ::fork();
    if (pid == 0) {
        ::setpgid(0, 0);
        std::vector<char *> argv;
        for (const std::string &arg : command)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    if (pid > 0)
        ::setpgid(pid, pid);
    return pid;
}

/**
 * On scope exit, SIGKILLs the whole process group of a spawn()ed
 * process and reaps its leader, unless the test reaped the leader
 * itself and disarmed the guard. A failed assertion thus takes a
 * supervisor's children down with it instead of orphaning them.
 */
struct ProcessGuard
{
    pid_t pid = -1;
    ~ProcessGuard()
    {
        if (pid > 0) {
            ::killpg(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
    void disarm() { pid = -1; }
};

/** Wait for @p pid to exit; returns its status, or nullopt on timeout. */
inline std::optional<int>
waitForExit(pid_t pid, double timeout_seconds)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeout_seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return status;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return std::nullopt;
}

/**
 * First live child of @p parent (scans /proc). With @p arg_name, only
 * a child whose command line has @p arg_value right after it counts,
 * which tells apart the two solverds an HA supervisor runs.
 */
inline pid_t
findChildOf(pid_t parent, const std::string &arg_name = "",
            const std::string &arg_value = "")
{
    DIR *proc = ::opendir("/proc");
    if (!proc)
        return -1;
    pid_t found = -1;
    while (dirent *entry = ::readdir(proc)) {
        std::string name = entry->d_name;
        if (name.empty() ||
            name.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        std::ifstream stat("/proc/" + name + "/stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        // Fields after the parenthesized command: state, then ppid.
        size_t close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(line.substr(close + 1));
        std::string state;
        long ppid = 0;
        rest >> state >> ppid;
        if (ppid != parent)
            continue;
        std::ifstream cmdline("/proc/" + name + "/cmdline");
        std::vector<std::string> argv;
        for (std::string arg; std::getline(cmdline, arg, '\0');)
            argv.push_back(arg);
        bool match = arg_name.empty();
        for (size_t i = 0; i + 1 < argv.size(); ++i)
            match |= argv[i] == arg_name && argv[i + 1] == arg_value;
        if (match) {
            found = static_cast<pid_t>(std::stol(name));
            break;
        }
    }
    ::closedir(proc);
    return found;
}

/**
 * @p count distinct UDP ports that were free a moment ago: bind that
 * many sockets to port 0, read their ports, close them all.
 */
inline std::vector<uint16_t>
freeUdpPorts(size_t count)
{
    std::vector<net::UdpSocket> sockets(count);
    std::vector<uint16_t> ports;
    for (net::UdpSocket &socket : sockets) {
        socket.bind(0);
        ports.push_back(socket.localPort());
    }
    return ports;
}

/** The file's contents without trailing newlines ("" if unreadable). */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    while (!content.empty() &&
           (content.back() == '\n' || content.back() == '\r')) {
        content.pop_back();
    }
    return content;
}

/** Value of a "key=value" field inside a stats line, or -1. */
inline long long
statsField(const std::string &stats, const std::string &key)
{
    size_t pos = stats.find(key + "=");
    if (pos == std::string::npos ||
        (pos != 0 && stats[pos - 1] != ' ')) {
        return -1;
    }
    pos += key.size() + 1;
    size_t end = stats.find(' ', pos);
    try {
        return std::stoll(stats.substr(pos, end - pos));
    } catch (...) {
        return -1;
    }
}

/** Poll `fiddle replica` on @p probe until the line contains @p want. */
inline bool
waitForReplicaLine(sensor::SensorClient &probe, const std::string &want,
                   double timeout_seconds, std::string *last = nullptr)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeout_seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        auto [ok, line] = probe.fiddle("replica");
        if (last)
            *last = line;
        if (ok && line.find(want) != std::string::npos)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

} // namespace test
} // namespace mercury

#endif // MERCURY_TESTS_DAEMON_HARNESS_HH
