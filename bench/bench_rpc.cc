/**
 * @file
 * Request-plane throughput bench: closed-loop sensor-read RPCs against
 * a solver daemon at 1/2/4 serve workers, with the multi-message
 * syscalls (recvmmsg/sendmmsg) on and off. Each client keeps a window
 * of pipelined requests in flight so both the batched receive path and
 * the batched reply path actually see batches.
 *
 * One benchmark iteration is one load window of kClients clients for
 * kSeconds. Manual time is that window, so daemon start-up and
 * shutdown stay out of it; the requests_per_second counter is replies
 * per second of window. scripts/bench.py gates the 4-worker speedup on
 * that counter.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/solver.hh"
#include "core/spec.hh"
#include "metrics/metrics.hh"
#include "net/udp.hh"
#include "proto/messages.hh"
#include "proto/solver_daemon.hh"

using namespace mercury;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kClients = 8;
constexpr size_t kWindow = 16;
constexpr double kSeconds = 0.5;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * One closed-loop client: keep kWindow SensorRequests in flight,
 * count completed replies until the deadline. Replies lost by the
 * kernel under overload simply age out of the window (0.25 s), so the
 * loop never wedges on a dropped datagram.
 */
uint64_t
clientLoop(uint16_t port, const std::string &machine)
{
    net::UdpSocket socket;
    net::Endpoint solver{*net::resolveHost("127.0.0.1"), port};

    std::vector<proto::Packet> packets(kWindow);
    std::vector<net::UdpSocket::SendDatagram> items(kWindow);
    std::vector<uint8_t> buffers(kWindow * proto::kMessageSize);
    std::vector<net::UdpSocket::RecvDatagram> metas(kWindow);

    uint64_t completed = 0;
    uint32_t request_id = 1;
    auto start = Clock::now();
    while (secondsSince(start) < kSeconds) {
        for (size_t i = 0; i < kWindow; ++i) {
            proto::SensorRequest request;
            request.requestId = request_id++;
            request.machine = machine;
            request.component = "cpu";
            packets[i] = proto::encode(request);
            items[i].to = solver;
            items[i].data = packets[i].data();
            items[i].length = packets[i].size();
        }
        if (socket.sendMany(items.data(), kWindow) == 0)
            break; // route gone; don't spin
        size_t got = 0;
        auto wait_start = Clock::now();
        while (got < kWindow) {
            double remaining = 0.25 - secondsSince(wait_start);
            if (remaining <= 0.0)
                break;
            size_t n = socket.recvMany(buffers.data(),
                                       proto::kMessageSize, metas.data(),
                                       kWindow - got, remaining);
            if (n == 0)
                break;
            got += n;
        }
        completed += got;
    }
    return completed;
}

/** range(0) serve workers; range(1) != 0 batches the syscalls. */
void
BM_RequestPlane(benchmark::State &state)
{
    net::setBatchSyscallsEnabled(state.range(1) != 0);

    core::Solver solver;
    std::vector<std::string> machines;
    for (unsigned i = 0; i < kClients; ++i) {
        machines.push_back("m" + std::to_string(i));
        solver.addMachine(core::table1Server(machines.back()));
    }

    metrics::Registry registry;
    proto::SolverDaemon::Config config;
    config.port = 0;
    config.serveThreads = static_cast<unsigned>(state.range(0));
    config.iterationSeconds = 0.0;
    config.statsLogSeconds = 0.0;
    config.shmName = "/mercury.bench_rpc." + std::to_string(::getpid());
    config.registry = &registry;
    proto::SolverDaemon daemon(solver, config);
    std::thread server([&] { daemon.run(); });

    // Let the first telemetry heartbeat publish so reads are served
    // from the shared-memory snapshot (the steady-state fast path).
    std::this_thread::sleep_for(std::chrono::milliseconds(250));

    uint64_t replies = 0;
    double seconds = 0.0;
    for (auto _ : state) {
        std::vector<uint64_t> completed(kClients, 0);
        std::vector<std::thread> threads;
        auto start = Clock::now();
        for (unsigned i = 0; i < kClients; ++i) {
            threads.emplace_back([&, i] {
                completed[i] = clientLoop(daemon.port(), machines[i]);
            });
        }
        for (auto &thread : threads)
            thread.join();
        double elapsed = secondsSince(start);
        state.SetIterationTime(elapsed);
        seconds += elapsed;
        for (uint64_t n : completed)
            replies += n;
    }

    daemon.stop();
    server.join();
    net::setBatchSyscallsEnabled(true);
    state.counters["requests_per_second"] = double(replies) / seconds;
}
BENCHMARK(BM_RequestPlane)
    ->ArgNames({"workers", "batched"})
    ->ArgsProduct({{1, 2, 4}, {1, 0}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
