/**
 * @file
 * live_fleet: mercury_solverd as a child process under an open-loop
 * load, with the operator flags for a large room.
 *
 * Daemon: the generated 1024-machine room, quiescence 0.05/3/64 (as in
 * docs/operations.md), shared-memory telemetry on, WAL and checkpoint
 * under the run directory with a 2 s checkpoint period (so saves and
 * WAL rotations land in every run) and the paper's 1 s iteration
 * period. It boots from a warm checkpoint (the room at equilibrium
 * under the initial utilizations, solved in-process beforehand), so
 * the fleet freezes within a few iterations instead of after a thermal
 * transient of many minutes.
 *
 * Load (open loop, one process, four threads and three sockets):
 *  - every machine's emulated monitord sends cpu + disk once per
 *    emulated second at its own seeded phase, with its own sequence
 *    numbers, batched through monitor::UpdateBatcher on a 1 ms tick;
 *    a seeded 5 % of the machines change value every second, the rest
 *    repeat theirs (and stay frozen);
 *  - single-sensor UDP reads (proto::SensorRequest) go to seeded random
 *    machines at the rate of the paper's tempd, which polls each
 *    component once per minute: 2 x 1024 / 60, about 34 reads/s, or
 *    1.6 % of the datagrams. One thread sends each at its due time and
 *    another takes the replies, so a slow or missing reply never holds
 *    up the next request; each read is timed from its due time.
 *
 * The load is sized so that no datagram is lost. The daemon keeps the
 * kernel's default 208 KiB socket buffer (about 200 datagrams), and
 * host stalls of its serve worker reach tens of milliseconds. With
 * 8 k updates/s (a 0.25 s period), 3 runs in 10 lost updates on a
 * noisy host. At 2 k updates/s plus 34 reads/s, the buffer holds a
 * stall of about 95 ms.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/solver.hh"
#include "graphdot/parser.hh"
#include "monitor/monitord.hh"
#include "net/udp.hh"
#include "proto/messages.hh"
#include "sensor/client.hh"
#include "sensor/transport.hh"
#include "state/checkpoint.hh"
#include "telemetry/reader.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr double kPeriod = 1.0;        //!< --iteration-seconds
constexpr double kHotFraction = 0.05;  //!< machines changing each second
constexpr double kTempdPeriod = 60.0;  //!< paper's tempd poll period
//! UDP sensor reads per second: every component polled once a period
constexpr double kReadRate = 2.0 * kRoomMachines / kTempdPeriod;
constexpr double kWarmupSeconds = 4.0; //!< load before the window opens
constexpr int kBoots = 7;              //!< set-up samples per run
constexpr int kWarmIterations = 5000;  //!< in-process warm start
constexpr int64_t kTickNs = 1000000;   //!< update batching tick
constexpr int64_t kSpinNs = 20000;     //!< reads spin this long to due
constexpr int kTelemetryBatch = 64;    //!< shm reads per traced batch

/** Child and segment to clean up if the benchmark is killed. */
volatile pid_t g_child = -1;
char g_shm[96] = {0};

void
onAbort(int signal)
{
    if (g_child > 0)
        ::kill(g_child, SIGKILL);
    if (g_shm[0])
        ::shm_unlink(g_shm);
    ::_exit(128 + signal);
}

void
sleepUntil(int64_t ns)
{
    timespec ts{};
    ts.tv_sec = time_t(ns / 1000000000);
    ts.tv_nsec = long(ns % 1000000000);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

/** Parse `fiddle metrics` summary text: "name value" lines, and
 *  histograms as name_count/_mean/_p50/_p99. */
Values
parseMetrics(const std::string &text)
{
    Values out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, token;
        if (!(fields >> name))
            continue;
        while (fields >> token) {
            auto eq = token.find('=');
            if (eq == std::string::npos)
                out[name] = std::strtod(token.c_str(), nullptr);
            else
                out[name + "_" + token.substr(0, eq)] =
                    std::strtod(token.c_str() + eq + 1, nullptr);
        }
    }
    return out;
}

double
get(const Values &values, const std::string &name)
{
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
}

/** Histogram sum = count * mean (the summary carries no raw sum). */
double
histSum(const Values &values, const std::string &name)
{
    return get(values, name + "_count") * get(values, name + "_mean");
}

struct Daemon
{
    pid_t pid = -1;
    uint16_t port = 0;
    std::string shm;
};

Daemon
spawnDaemon(const Args &args, const std::vector<std::string> &flags,
            const std::string &shm, const std::string &log_path)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(args.solverd.c_str()));
    for (const std::string &flag : flags)
        argv.push_back(const_cast<char *>(flag.c_str()));
    argv.push_back(nullptr);
    pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    Daemon daemon;
    daemon.pid = pid;
    daemon.shm = shm;
    g_child = pid;
    std::snprintf(g_shm, sizeof(g_shm), "%s", shm.c_str());
    return daemon;
}

/** Wait for the port file, then for a readable telemetry sample. */
bool
waitReady(Daemon &daemon, const std::string &port_file)
{
    int64_t deadline = nowNs() + int64_t(60e9);
    while (nowNs() < deadline) {
        int status = 0;
        if (::waitpid(daemon.pid, &status, WNOHANG) == daemon.pid) {
            daemon.pid = -1;
            return false;
        }
        if (daemon.port == 0) {
            std::ifstream in(port_file);
            unsigned port = 0;
            if (in >> port)
                daemon.port = uint16_t(port);
        }
        if (daemon.port != 0) {
            // A fresh Reader per attempt: a Reader that failed to
            // connect throttles its own retries.
            mercury::telemetry::Reader reader(daemon.shm);
            auto slot = reader.resolve("m0000", "cpu");
            if (slot && reader.read(*slot))
                return true;
        }
        ::usleep(200);
    }
    return false;
}

/**
 * solverd writes its port file before it installs its SIGTERM handler;
 * a SIGTERM in between kills it with no final checkpoint and leaves the
 * segment behind. Wait until /proc shows the handler (SigCgt).
 */
void
waitTermHandler(const Daemon &daemon)
{
    const std::string path = format("/proc/%d/status", int(daemon.pid));
    const unsigned long long bit = 1ULL << (SIGTERM - 1);
    for (int64_t until = nowNs() + int64_t(10e9); nowNs() < until;) {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("SigCgt:", 0) == 0 &&
                (std::strtoull(line.c_str() + 7, nullptr, 16) & bit))
                return;
        }
        ::usleep(200);
    }
}

/** SIGTERM, then wait (SIGKILL after 30 s); true on a clean exit 0. */
bool
stopDaemon(Daemon &daemon)
{
    if (daemon.pid <= 0)
        return false;
    ::kill(daemon.pid, SIGTERM);
    int status = 0;
    int64_t deadline = nowNs() + int64_t(30e9);
    pid_t done = 0;
    while ((done = ::waitpid(daemon.pid, &status, WNOHANG)) == 0 &&
           nowNs() < deadline)
        ::usleep(1000);
    if (done == 0) {
        ::kill(daemon.pid, SIGKILL);
        ::waitpid(daemon.pid, &status, 0);
    }
    daemon.pid = -1;
    g_child = -1;
    return done != 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** Due time of read @p j. */
int64_t
readDue(int64_t t0, uint64_t j)
{
    return t0 + int64_t(double(j) * 1e9 / kReadRate);
}

} // namespace

Outcome
runLiveFleet(const Args &args, bool traced)
{
    using namespace mercury;
    Outcome outcome;
    Tracer main_tracer(traced, 0), update_tracer(traced, 1),
        read_tracer(traced, 2);

    for (int sig : {SIGINT, SIGTERM, SIGHUP})
        ::signal(sig, onAbort);

    // --- Inputs: the room, initial utilizations, warm checkpoint. ---
    int64_t inputs_start = nowNs();
    Room room = makeRoom(args.seed);
    const size_t n = room.names.size();
    const std::string dir = args.runDir;
    const std::string config_path = dir + "/room.dot";
    const std::string warm_path = dir + "/warm.ck";
    const std::string ck_path = dir + "/solverd.ck";
    const std::string wal_path = dir + "/solverd.wal";
    const std::string port_file = dir + "/port";
    outcome.check(writeFile(config_path, roomConfigText(room)),
                  "write generated config");

    Rng plan_rng(args.seed * 0x2545f4914f6cdd1dULL + 17);
    std::vector<double> cpu(n), disk(n), phase(n);
    std::vector<bool> hot(n, false);
    std::vector<uint64_t> sequence(n, 0);
    for (size_t i = 0; i < n; ++i) {
        cpu[i] = plan_rng.uniform(0.05, 0.95);
        disk[i] = plan_rng.uniform(0.05, 0.6);
        phase[i] = plan_rng.uniform(0.0, kPeriod);
    }
    for (size_t picked = 0; picked < size_t(std::lround(n * kHotFraction));) {
        size_t i = size_t(plan_rng.uniformInt(0, int64_t(n) - 1));
        if (!hot[i]) {
            hot[i] = true;
            ++picked;
        }
    }
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return phase[a] < phase[b]; });
    {
        core::ConfigSpec config = graphdot::loadConfigFile(config_path);
        core::SolverConfig warm_config;
        warm_config.iterationSeconds = kPeriod;
        core::Solver warm(warm_config);
        buildSolver(warm, config);
        for (size_t i = 0; i < n; ++i) {
            warm.setUtilization(room.names[i], "cpu", cpu[i]);
            warm.setUtilization(room.names[i], "disk", disk[i]);
        }
        warm.run(kWarmIterations * kPeriod);
        std::string error;
        outcome.check(state::saveCheckpointFile(
                          warm_path, state::captureSolver(warm), &error),
                      "save warm checkpoint: " + error);
    }
    outcome.note(format("inputs generated in %.2f s (warm start: %d "
                        "iterations)",
                        secondsBetween(inputs_start, nowNs()),
                        kWarmIterations));

    // --- Boots: each one is a set-up sample; the last one serves. ---
    std::vector<double> setups;
    Daemon daemon;
    for (int boot = 0; boot < kBoots && outcome.correct; ++boot) {
        std::error_code ec;
        std::filesystem::copy_file(
            warm_path, ck_path,
            std::filesystem::copy_options::overwrite_existing, ec);
        std::filesystem::remove(port_file, ec);
        std::filesystem::remove(wal_path, ec);
        std::filesystem::remove(wal_path + ".old", ec);
        std::string shm = format("/perfbench.%d.%d", int(::getpid()), boot);
        std::vector<std::string> flags = {
            "--config", config_path, "--port", "0", "--port-file", port_file,
            "--iteration-seconds", format("%g", kPeriod),
            "--quiescence-epsilon", "0.05", "--quiescence-hold", "3",
            "--quiescence-refresh", "64", "--shm-name", shm,
            "--checkpoint-path", ck_path, "--checkpoint-seconds", "2",
            "--wal-path", wal_path};
        int32_t span = main_tracer.begin("boot(spawn->port file->shm)");
        int64_t t0 = nowNs();
        daemon = spawnDaemon(args, flags, shm, dir + "/solverd.log");
        bool ready = waitReady(daemon, port_file);
        int64_t t1 = nowNs();
        main_tracer.end(span);
        outcome.check(ready, format("boot %d: daemon ready (see %s)", boot,
                                    (dir + "/solverd.log").c_str()));
        if (!ready)
            break;
        setups.push_back(secondsBetween(t0, t1));
        waitTermHandler(daemon);
        if (boot + 1 < kBoots) {
            outcome.check(stopDaemon(daemon),
                          format("boot %d: clean exit on SIGTERM", boot));
            outcome.check(::access(("/dev/shm" + shm).c_str(), F_OK) != 0,
                          format("boot %d: segment unlinked at exit", boot));
        }
    }
    if (!outcome.correct) {
        if (daemon.pid > 0)
            stopDaemon(daemon);
        ::shm_unlink(daemon.shm.c_str());
        outcome.attempted = outcome.failed = 1;
        return outcome;
    }

    // --- Open-loop load from t0 to t_stop; the window sits inside. ---
    net::Endpoint solver_endpoint;
    solver_endpoint.address = *net::resolveHost("127.0.0.1");
    solver_endpoint.port = daemon.port;
    sensor::SensorClient control(
        std::make_unique<sensor::UdpTransport>("127.0.0.1", daemon.port),
        "m0000");
    telemetry::Reader window_reader(daemon.shm);
    auto window_slot = window_reader.resolve("m0000", "cpu");

    const int64_t t0 = nowNs() + 50000000;
    const int64_t planned_start = t0 + int64_t(kWarmupSeconds * 1e9);
    // The window opens and closes on an iteration publish (within the
    // next period), so the load runs on for two periods past its
    // planned end.
    const int64_t t_stop = planned_start +
                           int64_t((args.seconds + 2.0 * kPeriod) * 1e9);
    const int64_t period_ns = int64_t(kPeriod * 1e9);

    uint64_t total_reads = 0;
    while (readDue(t0, total_reads) < t_stop)
        ++total_reads;
    std::vector<int64_t> read_sent(total_reads, 0), read_reply(total_reads, 0);
    std::vector<uint8_t> read_ok(total_reads, 0);
    uint64_t read_send_errors = 0;
    std::vector<std::pair<int64_t, int>> tick_updates; // (due, updates)
    std::vector<double> tick_late_us, flush_us, shm_read_ns;
    uint64_t updates_sent = 0, update_send_errors = 0;
    telemetry::Reader::Stats shm_stats;

    std::thread updates([&] {
        auto socket = std::make_shared<net::UdpSocket>();
        monitor::UpdateBatcher batcher(socket, solver_endpoint);
        monitor::Monitord::Sink sink = batcher.sink();
        telemetry::Reader shm_reader(daemon.shm);
        std::vector<telemetry::Reader::Slot> slots;
        Rng slot_rng(args.seed + 99);
        if (traced) {
            for (int k = 0; k < 256; ++k) {
                size_t m = size_t(slot_rng.uniformInt(0, int64_t(n) - 1));
                if (auto slot = shm_reader.resolve(
                        room.names[m], slot_rng.chance(0.5) ? "cpu" : "disk"))
                    slots.push_back(*slot);
            }
        }
        size_t cursor = 0;
        int64_t cycle = 0;
        for (int64_t tick = 0;; ++tick) {
            int64_t due_tick = t0 + tick * kTickNs;
            if (due_tick >= t_stop)
                break;
            sleepUntil(due_tick);
            tick_late_us.push_back(double(nowNs() - due_tick) * 1e-3);
            int sent = 0;
            for (;;) {
                size_t m = order[cursor];
                int64_t due = t0 + cycle * period_ns +
                              int64_t(phase[m] * 1e9);
                if (due > due_tick)
                    break;
                if (hot[m]) {
                    cpu[m] = plan_rng.uniform(0.05, 0.95);
                    disk[m] = plan_rng.uniform(0.05, 0.6);
                }
                proto::UtilizationUpdate update;
                update.machine = room.names[m];
                update.component = "cpu";
                update.utilization = cpu[m];
                update.sequence = ++sequence[m];
                sink(update);
                update.component = "disk";
                update.utilization = disk[m];
                update.sequence = ++sequence[m];
                sink(update);
                sent += 2;
                if (++cursor == n) {
                    cursor = 0;
                    ++cycle;
                }
            }
            updates_sent += uint64_t(sent);
            tick_updates.emplace_back(due_tick, sent);
            int64_t f0 = nowNs();
            batcher.flush();
            int64_t f1 = nowNs();
            if (sent > 0) {
                flush_us.push_back(double(f1 - f0) * 1e-3);
                update_tracer.add("monitor.UpdateBatcher::flush", f0, f1, -1,
                                  uint64_t(tick));
            }
            if (traced && tick % 10 == 0 && !slots.empty()) {
                int64_t r0 = nowNs();
                for (int k = 0; k < kTelemetryBatch; ++k)
                    shm_reader.read(slots[size_t(k) % slots.size()]);
                int64_t r1 = nowNs();
                shm_read_ns.push_back(double(r1 - r0) / kTelemetryBatch);
                update_tracer.add("telemetry.Reader::read(x64)", r0, r1, -1,
                                  uint64_t(tick));
            }
        }
        update_send_errors = batcher.sendErrors();
        shm_stats = shm_reader.stats();
    });

    net::UdpSocket read_socket;
    read_socket.bind(0);
    std::atomic<bool> reads_sent{false};
    std::thread read_sender([&] {
        ::prctl(PR_SET_TIMERSLACK, 1000UL);
        Rng read_rng(args.seed * 0x5851f42d4c957f2dULL + 3);
        for (uint64_t j = 0; j < total_reads; ++j) {
            proto::SensorRequest request;
            request.requestId = uint32_t(j + 1);
            request.machine =
                room.names[size_t(read_rng.uniformInt(0, int64_t(n) - 1))];
            request.component = read_rng.chance(0.5) ? "cpu" : "disk";
            proto::Packet packet = proto::encode(request);
            // Sleep to just short of the due time, then spin, so the
            // generator's own wake-up does not pass for daemon latency.
            int64_t due = readDue(t0, j);
            sleepUntil(due - kSpinNs);
            while (nowNs() < due) {
            }
            read_sent[j] = nowNs();
            if (!read_socket.sendTo(solver_endpoint, packet.data(),
                                    packet.size()))
                ++read_send_errors;
        }
        reads_sent.store(true, std::memory_order_release);
    });
    std::thread read_receiver([&] {
        proto::Packet buffer{};
        uint64_t answered = 0;
        int64_t give_up_at = 0;
        while (answered < total_reads) {
            net::Endpoint from;
            auto got = read_socket.recvFrom(buffer.data(), buffer.size(),
                                            &from, 0.05);
            int64_t now = nowNs();
            if (got) {
                auto message = proto::decode(buffer.data(), *got);
                const auto *reply =
                    message ? std::get_if<proto::SensorReply>(&*message)
                            : nullptr;
                if (reply && reply->requestId >= 1 &&
                    reply->requestId <= total_reads &&
                    read_reply[reply->requestId - 1] == 0) {
                    size_t j = reply->requestId - 1;
                    read_reply[j] = now;
                    read_ok[j] = reply->status == proto::Status::Ok &&
                                 std::isfinite(reply->temperature);
                    ++answered;
                }
            }
            if (reads_sent.load(std::memory_order_acquire)) {
                if (give_up_at == 0)
                    give_up_at = now + int64_t(1e9);
                else if (now > give_up_at)
                    break;
            }
        }
    });

    // --- Window: opens and closes on an iteration publish, so the
    // emulated time it covers is exact. Daemon counters are read only
    // at its two ends. ---
    struct Sample
    {
        int64_t at = 0;
        double emulated = 0.0;
        TaskCounters task;
        Values metrics;
    };
    auto sample = [&](int64_t when) {
        sleepUntil(when);
        Sample s;
        uint64_t seen = 0;
        if (window_slot) {
            if (auto snap = window_reader.read(*window_slot))
                seen = snap->iteration;
        }
        for (int64_t until = nowNs() + 2 * period_ns; nowNs() < until;) {
            auto snap =
                window_slot ? window_reader.read(*window_slot) : std::nullopt;
            if (snap && snap->iteration != seen) {
                s.emulated = snap->emulatedSeconds;
                break;
            }
            ::usleep(200);
        }
        s.at = nowNs();
        s.task = readTaskCounters(daemon.pid);
        if (traced) {
            Tracer::Scope span(main_tracer,
                               "sensor.SensorClient::metricsText");
            if (auto text = control.metricsText())
                s.metrics = parseMetrics(*text);
        }
        return s;
    };
    Sample a = sample(planned_start);
    Sample b = sample(a.at + int64_t(args.seconds * 1e9) - period_ns / 2);
    updates.join();
    read_sender.join();
    read_receiver.join();

    // --- After the load: drain, final counters, checkpoint, stop. ---
    double applied = 0.0;
    for (int64_t until = nowNs() + int64_t(3e9); nowNs() < until;) {
        auto [ok, line] = control.fiddle("stats");
        auto pos = line.find(" up=");
        applied = pos == std::string::npos
                      ? 0.0
                      : std::strtod(line.c_str() + pos + 4, nullptr);
        if (!ok || applied >= double(updates_sent))
            break;
        ::usleep(10000);
    }
    Values final_metrics;
    if (auto text = control.metricsText())
        final_metrics = parseMetrics(*text);
    double checkpoint_ms = 0.0;
    if (traced) {
        int64_t c0 = nowNs();
        auto [ok, message] = control.fiddle("checkpoint");
        checkpoint_ms = double(nowNs() - c0) * 1e-6;
        main_tracer.add("state.fiddle checkpoint", c0, nowNs(), -1);
        outcome.check(ok, "fiddle checkpoint: " + message);
    }
    double daemon_rss = peakRssMb(daemon.pid);
    std::string shm = daemon.shm;
    outcome.check(stopDaemon(daemon), "daemon exits 0 on SIGTERM");
    outcome.check(::access(("/dev/shm" + shm).c_str(), F_OK) != 0,
                  "telemetry segment unlinked at exit");
    ::shm_unlink(shm.c_str());
    g_shm[0] = 0;

    // --- What the generator saw, in the window and in all. ---
    std::vector<double> read_us, late_us;
    uint64_t window_reads = 0, read_failures = read_send_errors;
    for (uint64_t j = 0; j < total_reads; ++j) {
        int64_t due = readDue(t0, j);
        bool ok = read_reply[j] != 0 && read_ok[j];
        if (!ok)
            ++read_failures;
        if (due < a.at || due >= b.at)
            continue;
        ++window_reads;
        late_us.push_back(double(read_sent[j] - due) * 1e-3);
        if (ok) {
            read_us.push_back(double(read_reply[j] - due) * 1e-3);
            int32_t parent = int32_t(read_tracer.spans().size());
            read_tracer.add("sensor.read(due->reply)", due, read_reply[j], -1,
                            j + 1);
            read_tracer.add("udp send->reply", read_sent[j], read_reply[j],
                            parent, j + 1);
        }
    }
    uint64_t window_updates = 0;
    for (size_t k = 0; k < tick_updates.size(); ++k) {
        if (tick_updates[k].first >= a.at && tick_updates[k].first < b.at) {
            window_updates += uint64_t(tick_updates[k].second);
            late_us.push_back(tick_late_us[k]);
        }
    }

    // --- Output checks. ---
    uint64_t lost = uint64_t(get(final_metrics, "net_updates_lost_total"));
    outcome.check(!final_metrics.empty(), "final metrics snapshot answered");
    outcome.check(applied == double(updates_sent),
                  format("daemon applied %.0f of %llu updates sent", applied,
                         static_cast<unsigned long long>(updates_sent)));
    for (const char *counter :
         {"net_updates_lost_total", "net_updates_duplicate_total",
          "net_updates_rejected_total", "net_undecodable_total"}) {
        outcome.check(get(final_metrics, counter) == 0.0,
                      format("%s is %.0f, want 0", counter,
                             get(final_metrics, counter)));
    }
    outcome.check(read_failures == 0 && update_send_errors == 0,
                  format("%llu unanswered or non-Ok reads, %llu update send "
                         "errors",
                         static_cast<unsigned long long>(read_failures),
                         static_cast<unsigned long long>(update_send_errors)));

    // The checkpoint written at SIGTERM restores into a solver built
    // from the same config and holds every machine's last update.
    double parse_s = 0.0, restore_ms = 0.0;
    {
        int64_t p0 = nowNs();
        core::ConfigSpec config;
        {
            Tracer::Scope span(main_tracer, "graphdot.loadConfigFile");
            config = graphdot::loadConfigFile(config_path);
        }
        parse_s = secondsBetween(p0, nowNs());
        core::SolverConfig solver_config;
        solver_config.iterationSeconds = kPeriod;
        core::Solver solver(solver_config);
        buildSolver(solver, config);
        state::Checkpoint checkpoint;
        std::string error;
        int64_t r0 = nowNs();
        bool restored = false;
        {
            Tracer::Scope span(main_tracer,
                               "state.loadCheckpointFile+restoreSolver");
            restored =
                state::loadCheckpointFile(ck_path, &checkpoint, &error) &&
                state::restoreSolver(solver, checkpoint, &error);
        }
        restore_ms = double(nowNs() - r0) * 1e-6;
        outcome.check(restored, "final checkpoint restores: " + error);
        size_t mismatched = 0;
        for (size_t i = 0; restored && i < n; ++i) {
            if (solver.utilization(solver.resolveRef(room.names[i], "cpu")) !=
                    cpu[i] ||
                solver.utilization(solver.resolveRef(room.names[i], "disk")) !=
                    disk[i])
                ++mismatched;
        }
        outcome.check(mismatched == 0,
                      format("%zu machines' checkpointed utilization differs "
                             "from the last update sent",
                             mismatched));
        size_t bad_senders = 0;
        for (const state::SenderRecord &sender : checkpoint.senders) {
            if (sender.lost != 0 || sender.duplicates != 0)
                ++bad_senders;
        }
        outcome.check(checkpoint.senders.size() == n && bad_senders == 0,
                      format("checkpoint tracks %zu senders (%zu with loss or "
                             "duplicates)",
                             checkpoint.senders.size(), bad_senders));
    }

    outcome.attempted = updates_sent + total_reads;
    outcome.failed = read_failures + update_send_errors + lost;

    // --- Metrics. ---
    double window_s = secondsBetween(a.at, b.at);
    double window_ops = double(window_updates + window_reads);
    double daemon_cpu = b.task.cpuSeconds - a.task.cpuSeconds;
    Values &e2e = outcome.endToEnd;
    e2e["setup_s"] = median(setups);
    e2e["peak_rss_mb"] = daemon_rss;
    e2e["cpu_us_per_op"] = daemon_cpu * 1e6 / window_ops;
    outcome.note(format("window %.3f s: %llu updates + %llu reads, %lld "
                        "machines hot; %llu updates and %llu reads in all",
                        window_s,
                        static_cast<unsigned long long>(window_updates),
                        static_cast<unsigned long long>(window_reads),
                        static_cast<long long>(
                            std::count(hot.begin(), hot.end(), true)),
                        static_cast<unsigned long long>(updates_sent),
                        static_cast<unsigned long long>(total_reads)));
    outcome.note(format("read latency from due time: p50 %.1f us, p99 %.1f "
                        "us over %zu reads; generator late p50 %.1f us, p99 "
                        "%.1f us",
                        median(read_us), quantile(read_us, 0.99),
                        read_us.size(), median(late_us),
                        quantile(late_us, 0.99)));

    if (!traced)
        return outcome;

    Values &layer = outcome.perLayer;
    const Values &ma = a.metrics, &mb = b.metrics;
    auto delta = [&](const std::string &name) {
        return get(mb, name) - get(ma, name);
    };
    double batches = delta("net_batch_size_count");
    // Pacing: about 1 while the daemon keeps its real-time period.
    layer["emu_s_per_s"] = (b.emulated - a.emulated) / window_s;
    layer["graphdot.parse_s"] = parse_s;
    layer["sensor.read_us.p50"] = median(read_us);
    layer["sensor.read_us.p99"] = quantile(read_us, 0.99);
    layer["sensor.read_us.p999"] = quantile(read_us, 0.999);
    layer["gen.late_us.p99"] = quantile(late_us, 0.99);
    layer["monitor.flush_us.p50"] = median(flush_us);
    layer["telemetry.read_ns"] = median(shm_read_ns);
    layer["telemetry.retry_frac"] =
        shm_stats.reads
            ? double(shm_stats.seqlockRetries) / double(shm_stats.reads)
            : 0.0;
    layer["net.batch_mean"] =
        batches > 0 ? (histSum(mb, "net_batch_size") -
                       histSum(ma, "net_batch_size")) /
                          batches
                    : 0.0;
    layer["net.busy_frac"] = delta("net_worker_busy_seconds") / window_s;
    layer["net.handle_us.p50"] =
        get(mb, "net_request_handle_seconds_p50") * 1e6;
    layer["solver.iter_us.p50"] = get(mb, "solver_iteration_seconds_p50") * 1e6;
    layer["solver.iter_us.p99"] = get(mb, "solver_iteration_seconds_p99") * 1e6;
    layer["solver.active_frac"] =
        0.5 *
        (get(ma, "solver_active_machines") +
         get(mb, "solver_active_machines")) /
        double(n);
    double solver_s = histSum(mb, "solver_iteration_seconds") -
                      histSum(ma, "solver_iteration_seconds");
    layer["solver.cpu_share"] = daemon_cpu > 0 ? solver_s / daemon_cpu : 0.0;
    layer["replica.wal_bytes_per_update"] =
        delta("replica_wal_bytes_total") / double(window_updates);
    layer["state.checkpoint_ms"] = checkpoint_ms;
    layer["state.restore_ms"] = restore_ms;
    layer["daemon.ctxsw_per_op"] =
        double(b.task.contextSwitches - a.task.contextSwitches) / window_ops;
    layer["daemon.writes_per_update"] =
        double(b.task.writeSyscalls - a.task.writeSyscalls) /
        double(window_updates);

    bool prediction = layer["solver.cpu_share"] < 0.10;
    outcome.note(format(
        "prediction 2 %s: solver iterations are %.1f%% of daemon CPU (want "
        "a few percent); cpu_us_per_op %.2f tracks per-datagram work: "
        "net.batch_mean %.2f, ctxsw/op %.3f, writes/update %.3f",
        prediction ? "PASS" : "MISS", 100.0 * layer["solver.cpu_share"],
        e2e["cpu_us_per_op"], layer["net.batch_mean"],
        layer["daemon.ctxsw_per_op"], layer["daemon.writes_per_update"]));
    outcome.selfSeconds =
        selfTimes({&main_tracer, &update_tracer, &read_tracer});
    writeSpans(dir + "/spans.csv",
               {&main_tracer, &update_tracer, &read_tracer});
    return outcome;
}

} // namespace perfbench
