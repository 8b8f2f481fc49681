/**
 * @file
 * Steady-state replication overhead bench: the acceptance gate for the
 * WAL + hot-standby subsystem is that logging and streaming mutations
 * costs at most 5% of iteration time at 1024 machines.
 *
 * Three rows over the identical workload (kIterations measured
 * iterations after kWarmup unmeasured ones, kMutations utilization
 * mutations applied per iteration, kMachines-machine fleet):
 *
 *   base        solver only — apply mutations, iterate
 *   wal         + encode each mutation and append/flush it to a WAL
 *   replicated  + offer records to a Replicator polled every
 *                 iteration, with a live acking standby on loopback
 *
 * The standby pumps and acks from its own thread, so the primary-side
 * numbers include real socket traffic (sends, ack drains, heartbeats)
 * but not the standby's work — exactly the cost the daemon's solver
 * thread pays in production. One benchmark iteration is one solver
 * iteration; scripts/bench.py gates (wal - base) / base and
 * (replicated - base) / base on the median real time.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/solver.hh"
#include "core/spec.hh"
#include "proto/messages.hh"
#include "proto/wal_codec.hh"
#include "replica/replicator.hh"
#include "replica/standby.hh"
#include "replica/wal.hh"
#include "state/checkpoint.hh"

using namespace mercury;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kMachines = 1024;
constexpr unsigned kIterations = 150;
constexpr unsigned kMutations = 64;
constexpr unsigned kWarmup = 20;

enum class Mode { Base, Wal, Replicated };

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * One measured run. Every mode applies the same mutations so the
 * solver walks the same trajectory; only the logging/streaming work
 * differs between modes.
 */
void
BM_Replica(benchmark::State &state, Mode mode)
{
    core::Solver solver;
    for (unsigned i = 0; i < kMachines; ++i)
        solver.addMachine(core::table1Server("m" + std::to_string(i)));
    const uint64_t topology = state::topologyHash(solver);

    std::string wal_path = "/tmp/mercury.bench_replica." +
                           std::to_string(::getpid()) + ".wal";
    std::unique_ptr<replica::WalWriter> wal;
    if (mode != Mode::Base) {
        replica::WalHeader header;
        header.topologyHash = topology;
        std::string error;
        wal = replica::WalWriter::create(wal_path, header, &error);
        if (!wal) {
            state.SkipWithError(error.c_str());
            return;
        }
    }

    std::unique_ptr<replica::Replicator> replicator;
    std::thread standby_thread;
    std::atomic<bool> stop{false};
    if (mode == Mode::Replicated) {
        replica::Replicator::Config config;
        config.port = 0;
        config.heartbeatSeconds = 0.25;
        config.leaseSeconds = 3.0;
        replicator =
            std::make_unique<replica::Replicator>(config, topology, 0, 1);
        uint16_t port = replicator->port();
        standby_thread = std::thread([port, topology, &stop] {
            replica::StandbyClient::Config config;
            config.host = "127.0.0.1";
            config.port = port;
            config.topologyHash = topology;
            config.helloSeconds = 0.05;
            config.ackSeconds = 0.01;
            config.localIteration = [] { return uint64_t(0); };
            replica::StandbyClient standby(config);
            while (!stop.load(std::memory_order_relaxed)) {
                standby.pump(0.001);
                while (standby.nextApplicable())
                    standby.markApplied();
                standby.maybeAck();
            }
        });
        // Let the standby attach before the clock starts, so the run
        // measures steady-state streaming rather than session setup.
        auto wait_start = Clock::now();
        while (replicator->standbyCount() == 0 &&
               secondsSince(wait_start) < 2.0) {
            replicator->poll(0);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    uint64_t sequence = 1;
    uint64_t records = 0;
    auto boundary = [&](uint64_t iteration_index) {
        // The drain boundary: apply this pass's mutations, logging and
        // streaming them first when the mode says so.
        for (unsigned m = 0; m < kMutations; ++m) {
            proto::UtilizationUpdate update;
            update.machine =
                "m" + std::to_string((iteration_index * kMutations + m) %
                                     kMachines);
            update.component = "cpu";
            update.utilization =
                0.25 + 0.5 * double((iteration_index + m) % 3 == 0);
            update.sequence = sequence;
            if (mode != Mode::Base) {
                replica::WalRecord record;
                record.sequence = sequence;
                record.iteration = solver.iterations();
                record.kind = replica::WalRecordKind::Mutation;
                record.payload = proto::encodeWalMutation(update);
                wal->append(record);
                if (replicator)
                    replicator->offer(record);
                ++records;
            }
            ++sequence;
            solver.setUtilization(update.machine, update.component,
                                  update.utilization);
        }
        if (wal)
            wal->flush();
        if (replicator) {
            if (solver.iterations() % 32 == 0)
                replicator->noteHash(solver.iterations(),
                                     replica::stateHash(solver));
            replicator->poll(solver.iterations());
        }
    };

    uint64_t iteration_index = 0;
    for (; iteration_index < kWarmup; ++iteration_index) {
        boundary(iteration_index);
        solver.iterate();
    }
    records = 0;
    for (auto _ : state) {
        boundary(iteration_index++);
        solver.iterate();
    }

    stop.store(true, std::memory_order_relaxed);
    if (standby_thread.joinable())
        standby_thread.join();
    if (wal) {
        wal->sync();
        wal.reset();
        std::remove(wal_path.c_str());
        std::remove((wal_path + ".old").c_str());
    }
    if (mode != Mode::Base)
        state.counters["records_per_iteration"] = benchmark::Counter(
            double(records), benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_Replica, base, Mode::Base)
    ->Iterations(kIterations)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Replica, wal, Mode::Wal)
    ->Iterations(kIterations)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Replica, replicated, Mode::Replicated)
    ->Iterations(kIterations)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
