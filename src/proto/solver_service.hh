/**
 * @file
 * Server-side message handler: the logic of the solver daemon,
 * independent of the transport. mercury_solverd pumps UDP packets
 * through it; the in-process transport (used by the cluster simulation
 * and the tests) calls it directly.
 *
 * Concurrency contract (the sharded request plane relies on it):
 *
 *  - handle()/handlePacket() remain the single-threaded synchronous
 *    path. One thread at a time may use them; that thread owns the
 *    solver. The daemon's solver-stepping thread is that thread, and
 *    it is also the only caller of handleQueued().
 *  - Serve workers running on other threads may concurrently call
 *    noteSequence(), countReceived(), statsLine(), lossStats(),
 *    backlogDepth(), metricsReply() and the counter accessors: the
 *    counters are relaxed atomics and the per-sender sequence windows
 *    live behind striped locks, so loss accounting stays exact under
 *    sharding.
 */

#ifndef MERCURY_PROTO_SOLVER_SERVICE_HH
#define MERCURY_PROTO_SOLVER_SERVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/solver.hh"
#include "metrics/metrics.hh"
#include "proto/messages.hh"
#include "state/checkpoint.hh"

namespace mercury {

namespace guard {
class SensorGuard;
} // namespace guard

namespace proto {

/**
 * Dispatches decoded Mercury messages onto a live Solver.
 */
class SolverService
{
  public:
    /** @param solver the configured solver (borrowed, not owned). */
    explicit SolverService(core::Solver &solver);

    /**
     * Handle one raw packet; returns the reply packet when the message
     * type warrants one (sensor and fiddle requests), nullopt for
     * one-way messages (utilization updates) and undecodable input.
     */
    std::optional<Packet> handlePacket(const uint8_t *data, size_t length);

    /** Handle a decoded message. */
    std::optional<Packet> handle(const Message &message);

    /**
     * Handle a message a serve worker already accounted for (type
     * counted via countReceived(), sequence noted via noteSequence())
     * and then queued for the solver thread. Identical dispatch to
     * handle() minus that double counting. Solver-thread only.
     */
    std::optional<Packet> handleQueued(const Message &message);

    /**
     * Apply a mutation that arrived through the replication stream (a
     * decoded WAL record). Bypasses read-only mode — the primary's
     * stream is the one mutation source a standby accepts — and notes
     * the sender sequence, so the standby's loss statistics mirror the
     * primary's and survive a promotion. Solver-thread only.
     */
    void handleReplicated(const Message &message);

    /**
     * Read-only mode (standby role): fiddle mutations are refused
     * with @p reason and stray utilization updates are dropped (and
     * counted) instead of applied — the replication stream is the only
     * way state changes. Solver-thread only, like the dispatch paths
     * it gates.
     */
    void setReadOnly(bool read_only, std::string reason = "");
    bool readOnly() const { return readOnly_; }

    /** Updates refused because the daemon is a read-only standby. */
    uint64_t updatesRefusedReadOnly() const
    {
        return load(updatesRefusedReadOnly_);
    }

    /**
     * Provider for the `fiddle replica` command line (role, sequence
     * positions, lag, hash verdict). Installed by the daemon; called
     * on the solver thread. Null = "replication disabled".
     */
    void setReplicaInfoProvider(std::function<std::string()> provider)
    {
        replicaInfoProvider_ = std::move(provider);
    }

    /** @name Counters (observability for the daemon and the tests) */
    /// @{
    uint64_t updatesApplied() const { return load(updatesApplied_); }
    uint64_t updatesRejected() const { return load(updatesRejected_); }

    /** Updates whose sender flagged the value as guard-substituted. */
    uint64_t updatesSubstituted() const
    {
        return load(updatesSubstituted_);
    }
    uint64_t sensorReads() const { return load(sensorReads_); }
    uint64_t multiReads() const { return load(multiReads_); }
    uint64_t fiddlesApplied() const { return load(fiddlesApplied_); }
    uint64_t undecodable() const { return load(undecodable_); }

    /** Decoded messages received of one type. */
    uint64_t received(MessageType type) const;

    /** Count one decoded message of @p type (serve workers call this
     *  at decode time; the queued dispatch then skips it). */
    void countReceived(MessageType type);

    /** Count one undecodable/misdirected packet (thread-safe). */
    void countUndecodable() { bump(undecodable_); }

    /** Count one snapshot-served sensor read / MultiRead datagram
     *  (the serve workers answer these without entering handle()). */
    void countSensorRead(uint64_t n = 1) { bump(sensorReads_, n); }
    void countMultiRead() { bump(multiReads_); }
    /// @}

    /**
     * Aggregate packet-loss health, summed over all senders. Updates
     * carry a per-sender sequence number; gaps are detected loss, late
     * gap-fillers are reorders, window re-hits are duplicates.
     */
    struct LossStats
    {
        uint64_t received = 0;   //!< UtilizationUpdates seen
        uint64_t lost = 0;       //!< sequence gaps still unfilled
        uint64_t duplicates = 0; //!< same sequence seen twice
        uint64_t reordered = 0;  //!< arrived late (or before tracking)
        uint64_t senders = 0;    //!< distinct machines tracked
    };

    LossStats lossStats() const;

    /**
     * Note one sender's sequence number (and reported backlog depth)
     * for loss accounting. Thread-safe: the sender table is striped by
     * machine-name hash, so workers on different shards never contend
     * unless they track the same sender. The serve workers call this
     * at receive time — before the update waits in the mutation queue
     * — so detection latency does not distort the statistics.
     */
    void noteSequence(const std::string &machine, uint64_t sequence,
                      uint32_t backlog);

    /**
     * One-line counter summary, compact enough for a FiddleReply
     * (the `fiddle stats` command) and the daemon's periodic log.
     * Leads with it=<iteration> — the supervisor's liveness probe
     * parses that field, so it must survive the reply-width clamp.
     * Thread-safe (serve workers answer `fiddle stats` inline).
     */
    std::string statsLine() const;

    /**
     * Wire the checkpoint subsystem in (borrowed, may be null): the
     * `fiddle checkpoint` command saves through it and statsLine()
     * reports checkpoint age / last-restore iteration from it.
     */
    void setCheckpointManager(state::CheckpointManager *manager)
    {
        checkpointManager_ = manager;
    }

    /** Sum of the backlog depths last reported by each sender. */
    uint64_t backlogDepth() const;

    /**
     * Wire the sensor trust layer in (borrowed, may be null). Enables
     * the `fiddle guard` command family: `guard` (fleet summary),
     * `guard page <offset>` (paged per-stream report, replies are
     * "<nextOffset>|<chunk>", nextOffset 0 = done), and `guard
     * <stream>` (one stream's health line). Solver-thread only, like
     * the guard itself — the request plane already queues non-stats
     * fiddle lines onto that thread.
     */
    void setSensorGuard(guard::SensorGuard *guard)
    {
        sensorGuard_ = guard;
    }

    guard::SensorGuard *sensorGuard() const { return sensorGuard_; }

    /**
     * Wire the metrics subsystem in (borrowed, may be null). The
     * service exports its receive/loss counters into @p registry as
     * callbacks (unregistered automatically on destruction) and
     * answers MetricsRequest pages from the registry's rendered
     * summary.
     */
    void setMetricsRegistry(metrics::Registry *registry);

    /**
     * Build a MetricsReply page using @p page_cache as the client's
     * consistent-snapshot buffer. The synchronous path passes the
     * service's own cache; each serve worker passes its own (with
     * SO_REUSEPORT one client's pages all land on one worker, so a
     * per-worker cache still gives each client one snapshot).
     */
    Packet metricsReply(const MetricsRequest &msg,
                        std::string &page_cache) const;

    /** @name Sender-table checkpointing
     * The sequence trackers are part of a checkpoint: without them a
     * restored daemon would misread the monitord's next sequence
     * number as a giant loss gap (or a restart), corrupting the loss
     * statistics the operators alarm on.
     */
    /// @{
    std::vector<state::SenderRecord> exportSenders() const;
    void importSenders(const std::vector<state::SenderRecord> &records);
    /// @}

  private:
    std::optional<Packet> dispatch(const Message &message,
                                   bool preaccounted,
                                   bool replicated = false);

    Packet onUtilization(const UtilizationUpdate &msg,
                         bool note_sequence);
    Packet onSensorRequest(const SensorRequest &msg);
    Packet onMultiReadRequest(const MultiReadRequest &msg);
    Packet onFiddleRequest(const FiddleRequest &msg, bool replicated);
    Packet onGuardCommand(const std::string &args, FiddleReply reply);

    static uint64_t
    load(const std::atomic<uint64_t> &counter)
    {
        return counter.load(std::memory_order_relaxed);
    }

    static void
    bump(std::atomic<uint64_t> &counter, uint64_t n = 1)
    {
        counter.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Per-sender sequence-gap tracker: highest sequence seen plus a
     * 64-wide seen-bitmap below it (bit 0 = head). A forward jump
     * counts the skipped slots as lost; a late arrival inside the
     * window fills its slot, counts as a reorder and un-counts one
     * loss; a re-hit inside the window is a duplicate.
     */
    struct SenderState
    {
        bool started = false;
        uint64_t head = 0;
        uint64_t window = 0;
        uint64_t received = 0;
        uint64_t lost = 0;
        uint64_t duplicates = 0;
        uint64_t reordered = 0;
        uint32_t lastBacklog = 0; //!< sender's queued-sample depth

        void note(uint64_t sequence);
    };

    /** Sender-table stripe count (power of two, hash-distributed). */
    static constexpr size_t kSenderStripes = 16;

    /** One lock-striped shard of the sender table. Striping keeps the
     *  receive-time noteSequence() calls of different senders from
     *  serializing against each other while still letting statsLine()
     *  and checkpoint export walk a consistent per-stripe view. */
    struct SenderStripe
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, SenderState> senders;
    };

    SenderStripe &stripeFor(const std::string &machine);
    const SenderStripe &stripeFor(const std::string &machine) const;

    /**
     * Resolve machine.component to a solver handle, consulting the
     * positive cache first. monitord re-sends the same handful of
     * targets every second; caching skips the string -> alias ->
     * NodeId map chain on all but the first update. Failures are not
     * cached (an alias registered later may make them resolvable).
     * Solver-thread only (like everything touching solver_).
     */
    std::optional<core::Solver::NodeRef>
    resolveCached(const std::string &machine, const std::string &component);

    core::Solver &solver_;

    /** Positive resolution cache: per machine, the components already
     *  resolved. A lookup hashes the machine name and scans its few
     *  components, so a hit builds no key string. */
    std::unordered_map<
        std::string,
        std::vector<std::pair<std::string, core::Solver::NodeRef>>>
        resolved_;

    /** Unmapped update targets already warned about. A machine whose
     *  graph has no NIC node, say, produces a "net" update every
     *  second in /proc mode; warn once, not once per second. */
    std::set<std::string> warnedTargets_;

    /** Sequence accounting per sending machine (one monitord each),
     *  striped by machine-name hash. */
    std::array<SenderStripe, kSenderStripes> senders_;

    /** Decoded receives indexed by raw MessageType (1..9; 0 unused).
     *  Relaxed atomics: workers count at decode time. */
    std::array<std::atomic<uint64_t>, 10> receivedByType_{};

    std::atomic<uint64_t> updatesApplied_{0};
    std::atomic<uint64_t> updatesRejected_{0};
    std::atomic<uint64_t> updatesRefusedReadOnly_{0};
    std::atomic<uint64_t> updatesSubstituted_{0};
    std::atomic<uint64_t> sensorReads_{0};
    std::atomic<uint64_t> multiReads_{0};
    std::atomic<uint64_t> fiddlesApplied_{0};
    std::atomic<uint64_t> undecodable_{0};

    /** Checkpoint plumbing (borrowed from the daemon; may be null). */
    state::CheckpointManager *checkpointManager_ = nullptr;

    /** Metrics plumbing (borrowed; may be null). */
    metrics::Registry *metricsRegistry_ = nullptr;
    metrics::CallbackGuard metricsGuard_;

    /** Snapshot text being paged out on the synchronous path: rendered
     *  fresh on an offset-0 MetricsRequest, served verbatim for the
     *  follow-up pages so one client sees one consistent snapshot. */
    std::string metricsPageCache_;

    /** Sensor trust layer (borrowed; may be null). */
    guard::SensorGuard *sensorGuard_ = nullptr;

    /** Guard report being paged out by `guard page <offset>`,
     *  re-rendered on offset 0 (solver-thread only, like the guard). */
    std::string guardPageCache_;

    /** Standby role: refuse external mutations (solver-thread only,
     *  like the paths that read it). */
    bool readOnly_ = false;
    std::string readOnlyReason_;

    /** `fiddle replica` report source (borrowed from the daemon). */
    std::function<std::string()> replicaInfoProvider_;
};

} // namespace proto
} // namespace mercury

#endif // MERCURY_PROTO_SOLVER_SERVICE_HH
