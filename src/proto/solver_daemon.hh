/**
 * @file
 * The UDP solver daemon: a sharded request plane (proto/request_plane)
 * answers sensor/fiddle/metrics traffic while this class's run() loop
 * steps the solver and applies queued mutations at iteration
 * boundaries — this is the paper's `solver` process running "on a
 * separate machine".
 *
 * Replication rides the same loop. As primary, the daemon appends
 * every drained mutation to a deterministic WAL (replica/wal) and
 * streams the records to hot standbys (replica/replicator). As
 * standby (`--replica-of`), it applies the primary's records at the
 * same iteration boundaries to maintain a bitwise-identical shadow,
 * serves read-only traffic from its own shm segment, and promotes
 * itself when the primary's lease expires.
 *
 * apps/mercury_solverd.cc wraps this in a main(); the network tests
 * run it on a background thread against an ephemeral port.
 */

#ifndef MERCURY_PROTO_SOLVER_DAEMON_HH
#define MERCURY_PROTO_SOLVER_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "proto/request_plane.hh"
#include "proto/solver_service.hh"
#include "replica/replicator.hh"
#include "replica/standby.hh"
#include "replica/wal.hh"
#include "state/checkpoint.hh"

namespace mercury {

namespace core {
class Solver;
} // namespace core

namespace telemetry {
class Writer;
} // namespace telemetry

namespace proto {

/**
 * UDP front end for a Solver.
 */
class SolverDaemon
{
  public:
    struct Config
    {
        /** UDP port to bind; 0 picks an ephemeral port. The paper's
         *  example uses 8367. */
        uint16_t port = 8367;

        /** Serve workers on the request plane, each with its own
         *  SO_REUSEPORT socket. 1 (the default) keeps the serial
         *  daemon's single-receiver behavior. */
        unsigned serveThreads = 1;

        /** Wall-clock seconds between solver iterations; <= 0
         *  disables time-stepping (useful in tests that step the
         *  solver themselves). A standby ignores the timer and steps
         *  in lockstep with the primary instead. */
        double iterationSeconds = 1.0;

        /** Wall-clock seconds between packet-health log lines
         *  (service().statsLine(), at info level); <= 0 disables. */
        double statsLogSeconds = 60.0;

        /** Shared-memory telemetry segment name ("/name"); empty
         *  disables the telemetry plane. Local sensor libraries read
         *  temperatures straight from the segment instead of asking
         *  over UDP, and the serve workers answer read RPCs from it
         *  without touching the solver. */
        std::string shmName;

        /** Checkpoint file; empty disables checkpointing. Restored at
         *  construction (before the telemetry segment is built, so the
         *  first published snapshot already carries the resumed
         *  state); saved on the timer below, on `fiddle checkpoint`,
         *  and once more when run() returns (clean shutdown). */
        std::string checkpointPath;

        /** Wall-clock seconds between periodic checkpoint saves;
         *  <= 0 disables the timer (explicit saves still work). */
        double checkpointSeconds = 30.0;

        /** Prometheus text file written atomically every
         *  metricsSeconds; empty disables the file writer (the
         *  MetricsRequest RPC still works). */
        std::string metricsPath;

        /** Wall-clock seconds between metrics file writes. */
        double metricsSeconds = 10.0;

        /** Metrics registry to instrument into; null uses the
         *  process-global registry. Tests pass their own so
         *  concurrent daemons in one process stay isolated. */
        metrics::Registry *registry = nullptr;

        /** @name Replication (see docs/operations.md)
         *  The WAL and the replication plane are both optional and
         *  independent: a WAL alone buys post-mortem replay, a
         *  replication port alone buys a hot standby (which keeps its
         *  own WAL when walPath is also set). */
        /// @{

        /** Mutation WAL file; empty disables WAL logging. */
        std::string walPath;

        /** Replication listener port (>= 0 enables; 0 = ephemeral).
         *  Primaries stream records from it; a standby binds it too,
         *  inactive, so its address survives a promotion. */
        int replicationPort = -1;

        /** "host:port" of a primary's replication listener; non-empty
         *  makes this daemon a hot standby of that primary. */
        std::string replicaOf;

        /** Promotion lease: a standby promotes itself after the
         *  primary has been silent this long. */
        double leaseSeconds = 3.0;

        /** Heartbeat period toward standbys; keep well under the
         *  lease. */
        double replicaHeartbeatSeconds = 0.5;

        /** State-hash cadence (iterations between primary/standby
         *  bitwise-identity checks); 0 disables hashing. */
        unsigned hashIterations = 32;

        /** Never-contacted fallback: a standby that could not reach
         *  the primary at all promotes after this long (<= 0: wait
         *  for contact forever). */
        double standbyGraceSeconds = 0.0;

        /** Port file rewritten (atomically) on promotion so clients
         *  following it fail over; empty disables. The app writes the
         *  initial primary-side file. */
        std::string portFile;

        /// @}
    };

    SolverDaemon(core::Solver &solver, Config config);
    ~SolverDaemon();

    /** Bound UDP port (after construction). */
    uint16_t port() const;

    /** Replication listener port; 0 when replication is disabled. */
    uint16_t replicationPort() const;

    /**
     * Serve until stop() is called from another thread. The serve
     * workers run on their own threads; this thread owns the solver:
     * it steps iterations, applies queued mutations at iteration
     * boundaries, and sleeps until the nearest pending deadline
     * (iteration, heartbeat, stats log, metrics file) or a queued
     * request that owes a reply, instead of polling on a fixed tick.
     * Queued utilization updates never wake it; they apply at its
     * next wake, before the next iteration. A standby instead follows
     * the primary's record stream until the lease expires, then
     * promotes itself and continues as primary.
     */
    void run();

    /** Ask a running run() loop to return (thread-safe). */
    void
    stop()
    {
        stop_.store(true, std::memory_order_relaxed);
        plane_->wake();
    }

    const SolverService &service() const { return service_; }

    /** The request plane (serve workers + mutation queue). */
    const RequestPlane &requestPlane() const { return *plane_; }

    /** The registry this daemon instruments into. */
    metrics::Registry &metricsRegistry() { return *registry_; }

    /** The telemetry writer; null when disabled or shm_open failed. */
    const telemetry::Writer *telemetryWriter() const
    {
        return writer_.get();
    }

    /** The checkpoint manager; null when checkpointing is disabled. */
    const state::CheckpointManager *checkpointManager() const
    {
        return checkpointManager_.get();
    }

    /** True while this daemon is a (not yet promoted) standby. */
    bool isStandby() const
    {
        return role_.load(std::memory_order_relaxed) == 1;
    }

    /** Times this daemon promoted itself (0 or 1 in practice). */
    uint64_t promotions() const
    {
        return promotions_.load(std::memory_order_relaxed);
    }

  private:
    using Clock = std::chrono::steady_clock;

    /** Shared timer state between the primary and standby loops. */
    struct LoopTimers;

    void setupReplication();
    void installMutationObserver();

    /** Append one drained mutation to the WAL + replication stream. */
    void logMutation(const Message &message);

    /** Append a record to the WAL (creating the standby's WAL lazily)
     *  and offer it to the replicator. */
    void walAppend(const replica::WalRecord &record);

    /** Open a fresh WAL file (openWal) or rotate to the next one
     *  (rotateWal, true when it did), its first record @p sequence at
     *  @p iteration; either runs on without a WAL on failure. */
    void openWal(uint64_t iteration, uint64_t sequence);
    bool rotateWal(uint64_t iteration, uint64_t sequence);
    void flushWal();
    void disableWal(const std::string &why);

    /** Hash the solver state at the configured cadence. */
    void maybeHashState();

    /** One iterate() wrapped with the histogram + state hashing. */
    void stepOnce();

    /** Checkpoint timer + WAL rotation (loop top, both roles). */
    void pollCheckpoint();

    /** Refresh the replica_* gauges (solver thread). */
    void updateReplicaMetrics();

    /** Shared loop-top timer work; returns the nearest deadline. */
    Clock::time_point pollTimers(LoopTimers &timers);

    void runPrimary(LoopTimers &timers);

    /** Follow the primary until promotion (true) or stop (false). */
    bool runStandby(LoopTimers &timers);

    /** Lease expired: become primary. */
    void promote();

    /** The `fiddle replica` report line. */
    std::string replicaInfoLine() const;

    core::Solver &solver_;
    Config config_;
    SolverService service_;
    std::unique_ptr<RequestPlane> plane_;
    std::unique_ptr<state::CheckpointManager> checkpointManager_;
    std::unique_ptr<telemetry::Writer> writer_;
    std::atomic<bool> stop_{false};

    metrics::Registry *registry_ = nullptr;
    metrics::Histogram *iterationHist_ = nullptr;
    metrics::CallbackGuard metricsGuard_;

    /** @name Replication state (solver thread unless noted) */
    /// @{
    std::unique_ptr<replica::WalWriter> wal_;
    std::unique_ptr<replica::Replicator> replicator_;
    std::unique_ptr<replica::StandbyClient> standby_;

    uint64_t topologyHash_ = 0;
    uint64_t nextSeq_ = 1;          //!< next WAL sequence (primary)
    uint64_t lastSaveCountSeen_ = 0;
    uint64_t lastHash_ = 0;
    uint64_t lastHashIteration_ = 0;

    std::atomic<int> role_{0}; //!< 0 primary, 1 standby (metrics read)
    std::atomic<uint64_t> promotions_{0};

    metrics::Counter *walAppendedTotal_ = nullptr;
    metrics::Counter *walBytesTotal_ = nullptr;
    metrics::Counter *promotionsTotal_ = nullptr;
    metrics::Gauge *replicaLagRecords_ = nullptr;
    metrics::Gauge *replicaLagSeconds_ = nullptr;
    metrics::Gauge *replicaAckedSeq_ = nullptr;
    metrics::Gauge *replicaAppliedSeq_ = nullptr;
    metrics::Gauge *replicaStandbys_ = nullptr;
    metrics::Gauge *replicaAttached_ = nullptr;
    metrics::Gauge *replicaHashVerdict_ = nullptr;
    metrics::Gauge *replicaHashChecks_ = nullptr;
    metrics::Gauge *replicaHashMismatches_ = nullptr;
    /// @}
};

} // namespace proto
} // namespace mercury

#endif // MERCURY_PROTO_SOLVER_DAEMON_HH
