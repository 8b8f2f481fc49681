/**
 * @file
 * The solver daemon's message logic, independent of the transport, and
 * the one module that decides what each datagram does.
 *
 * receive() is that decision. It decodes a datagram and counts it by
 * type (or as undecodable), notes an update's sender sequence, and
 * answers what needs no solver: `fiddle stats`, metrics pages, and the
 * Sensor and MultiRead requests a telemetry snapshot can serve.
 * Everything else comes back as a message for apply(), which runs on
 * the thread that owns the solver. Both read sources, the snapshot
 * and the live solver, go through one Sensor and one MultiRead answer,
 * so statuses and counters cannot differ between them.
 *
 * mercury_solverd's request plane calls receive() on its serve workers
 * and apply() when the solver thread drains its queue. handlePacket()
 * is both in one call: the in-process transport, monitord's loopback
 * and the tests use it.
 *
 * Concurrency contract:
 *
 *  - receive(), statsLine(), lossStats(), backlogDepth() and the
 *    counter accessors are thread-safe. The counters are relaxed
 *    atomics and the per-sender sequence windows live behind striped
 *    locks, so loss accounting stays exact however many workers
 *    receive. receive() reads no solver state; it consults only the
 *    solver's machine directory (machine, node and alias names), which
 *    is fixed before serving starts.
 *  - apply(), handlePacket(), handleReplicated(), the setters and the
 *    sender-table checkpoint hooks run on the one thread that owns the
 *    solver.
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
#include <unordered_set>
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

namespace telemetry {
class Reader;
} // namespace telemetry

namespace proto {

/**
 * Decides and carries out what each Mercury datagram does to a live
 * Solver.
 */
class SolverService
{
  public:
    /** @param solver the configured solver (borrowed, not owned). */
    explicit SolverService(core::Solver &solver);

    /** What receive() made of one datagram: an answer to send now, a
     *  message for apply(), or neither (the datagram was dropped). */
    struct Received
    {
        std::optional<Packet> reply;
        std::optional<Message> pending;
    };

    /**
     * Decode, count and route one datagram. Thread-safe.
     *
     * @param snapshot telemetry reader that serves Sensor and MultiRead
     *        requests (may be null); a read it cannot serve, because
     *        the segment is missing, stale or mid-remap, is handed
     *        back as pending for the solver to answer.
     * @param page_cache the caller's MetricsRequest page cache: an
     *        offset-0 request renders a fresh snapshot into it and the
     *        follow-up pages read it, so one client sees one snapshot.
     */
    Received receive(const uint8_t *data, size_t length,
                     telemetry::Reader *snapshot, std::string &page_cache);

    /**
     * Carry out a message receive() handed back and return the reply
     * it owes. Solver-thread only; the receive-time accounting is not
     * repeated here.
     */
    std::optional<Packet> apply(const Message &message);

    /**
     * The synchronous path: receive() with no snapshot, then apply()
     * what it hands back. Returns the reply packet when the message
     * type warrants one (sensor, fiddle and metrics requests), nullopt
     * for one-way messages (utilization updates) and dropped input.
     */
    std::optional<Packet> handlePacket(const uint8_t *data, size_t length);

    /**
     * Apply a mutation that arrived through the replication stream (a
     * decoded WAL record). It is counted and its sender sequence noted
     * as receive() would, so the standby's statistics mirror the
     * primary's and survive a promotion, and it bypasses read-only
     * mode: the primary's stream is the one mutation source a standby
     * accepts. Solver-thread only.
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

    /** @name Sender-table checkpointing
     * The sequence trackers are part of a checkpoint: without them a
     * restored daemon would misread the monitord's next sequence
     * number as a giant loss gap (or a restart), corrupting the loss
     * statistics the operators alarm on.
     */
    /// @{

    /**
     * Overwrite @p records with the sender table, sorted by machine
     * name so checkpoints are byte-stable. Records are rewritten in
     * place: exporting an unchanged table into the vector of the last
     * export allocates nothing.
     */
    void exportSenders(std::vector<state::SenderRecord> &records) const;

    /** Reinstall exported records; records of machines the solver
     *  does not have are skipped. */
    void importSenders(const std::vector<state::SenderRecord> &records);
    /// @}

    /** Rejected update targets logged, each once, before further ones
     *  are only counted. */
    static constexpr size_t kMaxWarnedTargets = 64;

  private:
    /** One read of machine.component from a read source. */
    struct Reading
    {
        Status status = Status::Ok;
        double temperature = 0.0; //!< valid when status == Ok
    };

    /** @name Read sources
     * The snapshot source resolves through the segment's directory;
     * nullopt means the snapshot cannot answer and the request goes to
     * the solver. It never answers unknown for a machine the snapshot
     * holds only in part (heldInPart). The solver source always
     * answers (solver thread). */
    /// @{
    std::optional<Reading> readFrom(telemetry::Reader &snapshot,
                                    const std::string &machine,
                                    const std::string &component);
    std::optional<Reading> readFrom(core::Solver &solver,
                                    const std::string &machine,
                                    const std::string &component);
    /// @}

    /** The Sensor and MultiRead answers over either source; nullopt
     *  when the source cannot answer. */
    template <typename Source>
    std::optional<Packet> answerSensor(const SensorRequest &msg,
                                       Source &source);
    template <typename Source>
    std::optional<Packet> answerMultiRead(const MultiReadRequest &msg,
                                          Source &source);

    /** Receive-time accounting: the type count and, for an update,
     *  the sender sequence. */
    void account(const Message &message);
    void noteSequence(const UtilizationUpdate &msg);

    std::optional<Packet> dispatch(const Message &message, bool replicated);
    void onUtilization(const UtilizationUpdate &msg);
    Packet onFiddleRequest(const FiddleRequest &msg, bool replicated);
    Packet onGuardCommand(const std::string &args, FiddleReply reply);
    Packet metricsReply(const MetricsRequest &msg,
                        std::string &page_cache) const;

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
     *  receive-time sequence notes of different senders from
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

    /**
     * True when the telemetry snapshot holds @p machine only in part.
     * telemetry::Writer skips names of telemetry::kNameWidth bytes or
     * more, so for a machine with such a name, node name or alias (or
     * an alias that leads to such a node) the snapshot can read
     * "unknown" where the solver answers. Worked out once, from the
     * machine directory and the aliases, which are fixed before
     * serving starts, on the first snapshot miss. Thread-safe.
     */
    bool heldInPart(const std::string &machine);

    core::Solver &solver_;

    std::once_flag partialOnce_;
    std::unordered_set<std::string> partialMachines_; //!< see heldInPart

    /** Positive resolution cache: per machine, the components already
     *  resolved. A lookup hashes the machine name and scans its few
     *  components, so a hit builds no key string. */
    std::unordered_map<
        std::string,
        std::vector<std::pair<std::string, core::Solver::NodeRef>>>
        resolved_;

    /** Unmapped update targets already warned about, at most
     *  kMaxWarnedTargets. A machine whose graph has no NIC node, say,
     *  produces a "net" update every second in /proc mode; warn once,
     *  not once per second. */
    std::set<std::string> warnedTargets_;

    /** Sequence accounting per sending machine (one monitord each),
     *  striped by machine-name hash. Only the solver's machines are
     *  tracked. */
    std::array<SenderStripe, kSenderStripes> senders_;

    /** exportSenders()' name-sorted view of the table, kept so an
     *  export allocates nothing (solver thread only). */
    mutable std::vector<std::pair<const std::string *, SenderState>>
        exportOrder_;

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
