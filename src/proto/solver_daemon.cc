#include "proto/solver_daemon.hh"

#include <algorithm>
#include <chrono>

#include "core/solver.hh"
#include "proto/wal_codec.hh"
#include "telemetry/writer.hh"
#include "util/bytes.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace proto {

namespace {

const char *
hashVerdictName(int verdict)
{
    return verdict > 0 ? "ok" : verdict < 0 ? "mismatch" : "n/a";
}

} // namespace

struct SolverDaemon::LoopTimers
{
    bool stepping = false;
    bool statsLogging = false;
    bool metricsFile = false;
    Clock::duration period{};
    Clock::duration statsPeriod{};
    Clock::duration heartbeatPeriod{};
    Clock::duration metricsPeriod{};
    Clock::duration checkpointPoll{};
    Clock::time_point nextIteration;
    Clock::time_point nextStats;
    Clock::time_point nextHeartbeat;
    Clock::time_point nextMetrics;
};

SolverDaemon::SolverDaemon(core::Solver &solver, Config config)
    : solver_(solver), config_(config), service_(solver)
{
    registry_ = config_.registry ? config_.registry
                                 : &metrics::Registry::global();
    iterationHist_ = registry_->histogram(
        "solver_iteration_seconds", metrics::Histogram::latencyBounds(),
        "wall-clock cost of one solver iteration");
    metricsGuard_.add(*registry_, "solver_iterations_total",
                      "solver iterations completed",
                      [this] { return double(solver_.iterations()); });
    metricsGuard_.add(*registry_, "solver_active_machines",
                      "machines stepped last iteration",
                      [this] {
                          return double(solver_.activeMachineCount());
                      });
    metricsGuard_.add(*registry_, "solver_frozen_machines",
                      "machines held quiescent last iteration",
                      [this] {
                          return double(solver_.frozenMachineCount());
                      });
    metricsGuard_.add(*registry_, "solver_emulated_seconds",
                      "emulated time reached by the solver",
                      [this] { return solver_.emulatedSeconds(); });
    service_.setMetricsRegistry(registry_);

    RequestPlane::Config plane_config;
    plane_config.port = config_.port;
    plane_config.serveThreads = config_.serveThreads;
    plane_config.shmName = config_.shmName;
    plane_config.registry = registry_;
    plane_ = std::make_unique<RequestPlane>(service_, plane_config);

    if (!config_.checkpointPath.empty()) {
        state::CheckpointManager::Config manager_config;
        manager_config.path = config_.checkpointPath;
        manager_config.periodSeconds = config_.checkpointSeconds;
        checkpointManager_ = std::make_unique<state::CheckpointManager>(
            solver_, manager_config);
        checkpointManager_->setSenderExporter(
            [this](std::vector<state::SenderRecord> &records) {
                service_.exportSenders(records);
            });
        checkpointManager_->setSenderImporter(
            [this](const std::vector<state::SenderRecord> &records) {
                service_.importSenders(records);
            });
        // Restore before the telemetry segment is (re)built below:
        // the segment's first snapshot then already carries the
        // resumed temperatures, and its bumped boot generation evicts
        // any reader still holding pre-crash slot handles.
        checkpointManager_->restoreAtBoot();
        service_.setCheckpointManager(checkpointManager_.get());
        lastSaveCountSeen_ = checkpointManager_->saveCount();
    }

    // After the restore: the WAL generation and the replication base
    // start at the resumed iteration.
    setupReplication();

    if (!config_.shmName.empty()) {
        writer_ = std::make_unique<telemetry::Writer>(
            config_.shmName, solver_, config_.iterationSeconds);
        if (writer_->valid()) {
            // Publish from the iteration itself (whoever steps the
            // solver — this loop or a test thread).
            writer_->installHook();
            inform("solverd: telemetry segment ", config_.shmName);
        } else {
            writer_.reset();
        }
    }
}

SolverDaemon::~SolverDaemon() = default;

uint16_t
SolverDaemon::port() const
{
    return plane_->port();
}

uint16_t
SolverDaemon::replicationPort() const
{
    return replicator_ ? replicator_->port() : 0;
}

void
SolverDaemon::setupReplication()
{
    const bool standby = !config_.replicaOf.empty();
    if (!standby && config_.replicationPort < 0 && config_.walPath.empty())
        return;

    // The checkpoint manager hashed the same topology at construction.
    topologyHash_ = checkpointManager_ ? checkpointManager_->topologyHash()
                                       : state::topologyHash(solver_);
    role_.store(standby ? 1 : 0, std::memory_order_relaxed);

    metricsGuard_.add(*registry_, "replica_role",
                      "replication role: 0 primary, 1 standby",
                      [this] {
                          return double(
                              role_.load(std::memory_order_relaxed));
                      });
    walAppendedTotal_ = registry_->counter(
        "replica_wal_appended_total", "records appended to the WAL");
    walBytesTotal_ = registry_->counter("replica_wal_bytes_total",
                                        "bytes appended to the WAL");
    promotionsTotal_ = registry_->counter(
        "replica_promotions_total",
        "standby-to-primary promotions performed by this daemon");
    replicaLagRecords_ = registry_->gauge(
        "replica_lag_records",
        "records the standby side has not applied yet");
    replicaLagSeconds_ = registry_->gauge(
        "replica_lag_seconds",
        "standby lag behind the primary, in emulated seconds");
    replicaAckedSeq_ = registry_->gauge(
        "replica_acked_seq",
        "highest sequence every live standby has acknowledged");
    replicaAppliedSeq_ = registry_->gauge(
        "replica_applied_seq",
        "highest sequence appended (primary) or applied (standby)");
    replicaStandbys_ = registry_->gauge("replica_standbys_connected",
                                        "live standby sessions");
    replicaAttached_ = registry_->gauge(
        "replica_attached",
        "1 when this standby is attached to its primary");
    replicaHashVerdict_ = registry_->gauge(
        "replica_hash_verdict",
        "last state-hash comparison: 1 ok, 0 unknown, -1 mismatch");
    replicaHashChecks_ = registry_->gauge(
        "replica_hash_checks_total", "state-hash comparisons performed");
    replicaHashMismatches_ = registry_->gauge(
        "replica_hash_mismatches_total",
        "state-hash comparisons that diverged");

    // A primary opens its WAL now; a standby's WAL starts at the first
    // replicated record (walAppend creates it lazily), so its header
    // carries the primary's sequence numbering instead of a local one.
    if (!standby && !config_.walPath.empty())
        openWal(solver_.iterations(), nextSeq_);

    if (config_.replicationPort >= 0) {
        replica::Replicator::Config replicator_config;
        replicator_config.port = uint16_t(config_.replicationPort);
        replicator_config.heartbeatSeconds =
            config_.replicaHeartbeatSeconds;
        replicator_config.leaseSeconds = config_.leaseSeconds;
        replicator_config.hashIterations = config_.hashIterations;
        replicator_ = std::make_unique<replica::Replicator>(
            replicator_config, topologyHash_, solver_.iterations(),
            nextSeq_);
        replicator_->setActive(!standby);
        inform("solverd: replication listener on port ",
               replicator_->port(),
               standby ? " (standby: inactive until promotion)" : "");
    }

    if (standby) {
        auto colon = config_.replicaOf.rfind(':');
        std::string host = colon == std::string::npos
                               ? std::string()
                               : config_.replicaOf.substr(0, colon);
        auto port_num =
            colon == std::string::npos
                ? std::nullopt
                : parseInt(config_.replicaOf.substr(colon + 1));
        if (host.empty() || !port_num || *port_num <= 0 ||
            *port_num > 65535)
            fatal("solverd: --replica-of wants host:port, got \"",
                  config_.replicaOf, "\"");

        replica::StandbyClient::Config standby_config;
        standby_config.host = host;
        standby_config.port = uint16_t(*port_num);
        standby_config.topologyHash = topologyHash_;
        standby_config.leaseSeconds = config_.leaseSeconds;
        standby_config.graceSeconds = config_.standbyGraceSeconds;
        standby_config.localIteration = [this] {
            return solver_.iterations();
        };
        standby_ =
            std::make_unique<replica::StandbyClient>(standby_config);
        service_.setReadOnly(true, "replica of " + config_.replicaOf);
        inform("solverd: hot standby of ", config_.replicaOf, " (lease ",
               config_.leaseSeconds, "s)");
    } else if (wal_ || replicator_) {
        installMutationObserver();
    }

    service_.setReplicaInfoProvider([this] { return replicaInfoLine(); });
}

void
SolverDaemon::installMutationObserver()
{
    plane_->setMutationObserver(
        [this](const Message &message) { logMutation(message); });
}

void
SolverDaemon::logMutation(const Message &message)
{
    std::vector<uint8_t> payload = encodeWalMutation(message);
    if (payload.empty())
        return;
    replica::WalRecord record;
    record.sequence = nextSeq_++;
    record.iteration = solver_.iterations();
    record.kind = replica::WalRecordKind::Mutation;
    record.payload = std::move(payload);
    walAppend(record);
}

void
SolverDaemon::walAppend(const replica::WalRecord &record)
{
    // Standby lazy path: the generation starts at this (primary
    // numbered) record.
    if (!wal_ && !config_.walPath.empty())
        openWal(record.iteration, record.sequence);
    if (wal_) {
        wal_->append(record);
        if (walAppendedTotal_) {
            walAppendedTotal_->inc();
            walBytesTotal_->inc(replica::kWalRecordOverhead +
                                record.payload.size());
        }
    }
    if (replicator_)
        replicator_->offer(record);
}

void
SolverDaemon::openWal(uint64_t iteration, uint64_t sequence)
{
    replica::WalHeader header;
    header.topologyHash = topologyHash_;
    header.startIteration = iteration;
    header.startSequence = sequence;
    std::string error;
    wal_ = replica::WalWriter::create(config_.walPath, header, &error);
    if (!wal_) {
        disableWal("cannot open the WAL: " + error);
        return;
    }
    inform("solverd: mutation WAL at ", config_.walPath,
           " (generation starts at iteration ", iteration, ", sequence ",
           sequence, ")");
}

bool
SolverDaemon::rotateWal(uint64_t iteration, uint64_t sequence)
{
    replica::WalHeader header;
    header.topologyHash = topologyHash_;
    header.startIteration = iteration;
    header.startSequence = sequence;
    std::string error;
    if (!wal_->rotate(header, &error)) {
        disableWal("WAL rotation failed: " + error);
        return false;
    }
    return true;
}

void
SolverDaemon::flushWal()
{
    // One kernel write per drain; durability rides the checkpoint
    // cadence (the standby is the low-latency copy).
    if (wal_ && !wal_->flush())
        disableWal("WAL write to " + wal_->path() + " failed");
}

void
SolverDaemon::disableWal(const std::string &why)
{
    warn("solverd: ", why, "; running without a WAL");
    wal_.reset();
    config_.walPath.clear();
}

void
SolverDaemon::maybeHashState()
{
    if (config_.hashIterations == 0 || (!replicator_ && !standby_))
        return;
    uint64_t iteration = solver_.iterations();
    if (iteration == 0 || iteration % config_.hashIterations != 0 ||
        iteration == lastHashIteration_)
        return;
    lastHash_ = replica::stateHash(solver_);
    lastHashIteration_ = iteration;
    if (replicator_)
        replicator_->noteHash(iteration, lastHash_);
    if (standby_)
        standby_->noteLocalHash(iteration, lastHash_);
}

void
SolverDaemon::stepOnce()
{
    auto start = Clock::now();
    solver_.iterate();
    iterationHist_->observe(
        std::chrono::duration<double>(Clock::now() - start).count());
    maybeHashState();
}

void
SolverDaemon::pollCheckpoint()
{
    if (!checkpointManager_)
        return;
    uint64_t pre = checkpointManager_->saveCount();
    checkpointManager_->maybeSave();
    uint64_t post = checkpointManager_->saveCount();
    // A save seen here (loop top) is a rotation point: no drained-but-
    // unlogged mutation straddles it. A save that happened mid-drain
    // (`fiddle checkpoint`, pre != lastSaveCountSeen_) only gets a
    // marker — replay cannot order same-iteration records against it,
    // so the generation keeps its base and relies on absolute-set
    // idempotence instead (see replica/wal.hh).
    bool timer_saved = post != pre;
    bool fiddle_saved = pre != lastSaveCountSeen_;
    lastSaveCountSeen_ = post;
    if (!timer_saved && !fiddle_saved)
        return;

    if (!isStandby() && (wal_ || replicator_)) {
        replica::WalRecord marker;
        marker.sequence = nextSeq_++;
        marker.iteration = solver_.iterations();
        marker.kind = replica::WalRecordKind::CheckpointMarker;
        ByteWriter(marker.payload).u64(post);
        walAppend(marker);
    }

    if (timer_saved && wal_) {
        uint64_t iteration = solver_.iterations();
        uint64_t sequence =
            standby_ ? standby_->lastAppliedSeq() + 1 : nextSeq_;
        if (rotateWal(iteration, sequence) && !isStandby() && replicator_)
            replicator_->noteRotation(iteration, sequence);
    }
}

void
SolverDaemon::updateReplicaMetrics()
{
    if (!replicaLagRecords_)
        return;
    if (standby_) {
        uint64_t iteration = solver_.iterations();
        uint64_t primary_iteration = standby_->primaryIteration();
        uint64_t behind = primary_iteration > iteration
                              ? primary_iteration - iteration
                              : 0;
        replicaAttached_->set(standby_->attached() ? 1.0 : 0.0);
        replicaAppliedSeq_->set(double(standby_->lastAppliedSeq()));
        replicaAckedSeq_->set(double(standby_->lastAppliedSeq()));
        replicaLagRecords_->set(double(standby_->lagRecords()));
        replicaLagSeconds_->set(
            double(behind) *
            (config_.iterationSeconds > 0 ? config_.iterationSeconds
                                          : 1.0));
        replicaStandbys_->set(0.0);
        replicaHashVerdict_->set(double(standby_->lastHashVerdict()));
        replicaHashChecks_->set(double(standby_->hashChecks()));
        replicaHashMismatches_->set(double(standby_->hashMismatches()));
        return;
    }
    uint64_t appended = nextSeq_ - 1;
    replicaAppliedSeq_->set(double(appended));
    if (replicator_) {
        uint64_t acked = replicator_->ackedSeq();
        replicaStandbys_->set(double(replicator_->standbyCount()));
        replicaAckedSeq_->set(double(acked));
        replicaLagRecords_->set(
            replicator_->standbyCount() && appended > acked
                ? double(appended - acked)
                : 0.0);
        uint64_t standby_iteration = replicator_->standbyIteration();
        uint64_t iteration = solver_.iterations();
        uint64_t behind = replicator_->standbyCount() &&
                                  iteration > standby_iteration
                              ? iteration - standby_iteration
                              : 0;
        replicaLagSeconds_->set(
            double(behind) *
            (config_.iterationSeconds > 0 ? config_.iterationSeconds
                                          : 1.0));
        replicaHashVerdict_->set(double(replicator_->lastHashVerdict()));
        replicaHashChecks_->set(double(replicator_->hashChecks()));
        replicaHashMismatches_->set(
            double(replicator_->hashMismatches()));
    }
    replicaAttached_->set(0.0);
}

SolverDaemon::Clock::time_point
SolverDaemon::pollTimers(LoopTimers &timers)
{
    if (writer_ && Clock::now() >= timers.nextHeartbeat) {
        writer_->refreshHeartbeat();
        timers.nextHeartbeat = Clock::now() + timers.heartbeatPeriod;
    }
    if (timers.statsLogging && Clock::now() >= timers.nextStats) {
        inform("solverd: ", service_.statsLine());
        timers.nextStats = Clock::now() + timers.statsPeriod;
    }
    pollCheckpoint();
    if (timers.metricsFile && Clock::now() >= timers.nextMetrics) {
        metrics::writeTextFile(*registry_, config_.metricsPath);
        timers.nextMetrics = Clock::now() + timers.metricsPeriod;
    }

    auto deadline = Clock::now() + timers.checkpointPoll;
    if (writer_)
        deadline = std::min(deadline, timers.nextHeartbeat);
    if (timers.statsLogging)
        deadline = std::min(deadline, timers.nextStats);
    if (timers.metricsFile)
        deadline = std::min(deadline, timers.nextMetrics);
    return deadline;
}

void
SolverDaemon::run()
{
    LoopTimers timers;
    timers.stepping = config_.iterationSeconds > 0.0;
    timers.period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            timers.stepping ? config_.iterationSeconds : 0.1));
    timers.nextIteration = Clock::now() + timers.period;

    timers.statsLogging = config_.statsLogSeconds > 0.0;
    timers.statsPeriod = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            timers.statsLogging ? config_.statsLogSeconds : 1.0));
    timers.nextStats = Clock::now() + timers.statsPeriod;

    // The iteration hook publishes (and timestamps) on every step;
    // refreshing just the heartbeat from this loop covers manual-step
    // mode and long iteration periods, so an alive daemon never looks
    // like a dead writer to shm readers.
    timers.heartbeatPeriod = std::chrono::milliseconds(500);
    timers.nextHeartbeat = Clock::now() + timers.heartbeatPeriod;

    timers.metricsFile =
        !config_.metricsPath.empty() && config_.metricsSeconds > 0.0;
    timers.metricsPeriod = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            timers.metricsFile ? config_.metricsSeconds : 1.0));
    // First write soon after startup so scrapers see the file early.
    timers.nextMetrics = Clock::now();

    // Checkpoint deadlines live inside the manager; polling maybeSave
    // at least this often keeps its timer honest without exposing it.
    timers.checkpointPoll = std::chrono::milliseconds(500);

    plane_->start();

    if (standby_ && runStandby(timers)) {
        // Promoted: fall through into the primary loop. The iteration
        // timer restarts now so the first self-stepped iteration lands
        // one full period after the takeover.
        timers.nextIteration = Clock::now() + timers.period;
    }
    runPrimary(timers);

    // Stop the workers before the final drain so no mutation slips in
    // after it; anything already queued is still applied and answered.
    plane_->stopAndJoin();
    plane_->drainPending();

    // stop() is the graceful path (SIGINT/SIGTERM in solverd): flush
    // one final checkpoint so a clean shutdown never loses state, and
    // make the WAL durable through the final drain's appends.
    if (wal_)
        wal_->sync();
    if (checkpointManager_) {
        if (checkpointManager_->saveNow())
            inform("solverd: final checkpoint saved to ",
                   checkpointManager_->path());
    }
    if (timers.metricsFile)
        metrics::writeTextFile(*registry_, config_.metricsPath);
}

void
SolverDaemon::runPrimary(LoopTimers &timers)
{
    auto replica_poll = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            std::max(0.01, config_.replicaHeartbeatSeconds / 2.0)));

    while (!stop_.load(std::memory_order_relaxed)) {
        auto deadline = pollTimers(timers);

        if (timers.stepping) {
            auto now = Clock::now();
            if (now >= timers.nextIteration) {
                stepOnce();
                timers.nextIteration += timers.period;
                // If we fell behind (heavy queries), skip forward
                // rather than bursting iterations.
                if (timers.nextIteration < now)
                    timers.nextIteration = now + timers.period;
            }
            deadline = std::min(deadline, timers.nextIteration);
        }
        if (replicator_ && replicator_->active())
            deadline = std::min(deadline, Clock::now() + replica_poll);

        // Sleep until the nearest pending deadline (not a fixed 50 ms
        // tick): the serve workers own the sockets, so the only things
        // that can need this thread are timers and queued requests
        // that owe a reply — the queue wakes us for those. Utilization
        // updates wait for whichever wake comes first and then apply
        // together, in arrival order, before the next iteration.
        plane_->waitForWork(deadline);
        plane_->drainPending();

        flushWal();
        if (replicator_) {
            replicator_->poll(solver_.iterations());
            updateReplicaMetrics();
        } else if (wal_) {
            updateReplicaMetrics();
        }
    }
}

bool
SolverDaemon::runStandby(LoopTimers &timers)
{
    while (!stop_.load(std::memory_order_relaxed)) {
        pollTimers(timers);

        // The pump doubles as this loop's sleep: replication traffic
        // wakes it immediately, timers tolerate the 20 ms bound.
        standby_->pump(0.02);

        size_t applied = 0;
        while (const replica::WalRecord *record =
                   standby_->nextApplicable()) {
            // Reach the record's boundary first: the primary drained
            // it after finishing that iteration.
            while (solver_.iterations() < record->iteration &&
                   !stop_.load(std::memory_order_relaxed))
                stepOnce();
            if (record->kind == replica::WalRecordKind::Mutation) {
                auto message = decodeWalMutation(record->payload.data(),
                                                 record->payload.size());
                if (message)
                    service_.handleReplicated(*message);
                else
                    warn("solverd: undecodable replicated mutation, "
                         "sequence ",
                         record->sequence, " (applying nothing)");
            }
            // Keep the primary's numbering in our own WAL so the
            // lineage stays replayable across a promotion.
            walAppend(*record);
            standby_->markApplied();
            ++applied;
        }

        // With no gaps outstanding, keep stepping in lockstep with the
        // primary's announced iteration.
        uint64_t safe = standby_->safeStepIteration();
        while (solver_.iterations() < safe &&
               !stop_.load(std::memory_order_relaxed))
            stepOnce();

        if (applied)
            flushWal();
        standby_->maybeAck();

        // Read-only traffic (and refusals) still flow through the
        // queue; the observer is not installed until promotion, so
        // nothing here reaches the WAL.
        plane_->drainPending();
        updateReplicaMetrics();

        if (standby_->leaseExpired()) {
            promote();
            return true;
        }
    }
    return false;
}

void
SolverDaemon::promote()
{
    const uint64_t iteration = solver_.iterations();
    warn("solverd: primary lease expired (", standby_->status(),
         ", last contact ", standby_->secondsSinceContact(),
         "s ago); promoting to primary at iteration ", iteration);

    nextSeq_ = standby_->lastAppliedSeq() + 1;
    if (nextSeq_ == 0)
        nextSeq_ = 1;
    role_.store(0, std::memory_order_relaxed);
    promotions_.fetch_add(1, std::memory_order_relaxed);
    if (promotionsTotal_)
        promotionsTotal_->inc();
    service_.setReadOnly(false);

    // Mark the lineage handover in our own WAL, then cut a fresh
    // checkpoint + WAL generation: any future standby seeds from the
    // state this daemon holds right now, not the dead primary's.
    replica::WalRecord record;
    record.sequence = nextSeq_++;
    record.iteration = iteration;
    record.kind = replica::WalRecordKind::Promotion;
    walAppend(record);
    if (wal_)
        wal_->sync();

    if (checkpointManager_) {
        std::string error;
        if (!checkpointManager_->saveNow(&error))
            warn("solverd: promotion checkpoint failed: ", error);
        lastSaveCountSeen_ = checkpointManager_->saveCount();
    }
    if (wal_)
        rotateWal(iteration, nextSeq_);
    if (replicator_) {
        replicator_->setStreamState(nextSeq_, iteration, nextSeq_);
        replicator_->setActive(true);
        inform("solverd: replication listener on port ",
               replicator_->port(), " now active");
    }
    if (!config_.portFile.empty()) {
        std::string error;
        if (!atomicWriteFile(config_.portFile,
                             std::to_string(port()) + "\n", &error))
            warn("solverd: port file ", config_.portFile,
                 " not updated: ", error);
        else
            inform("solverd: port file ", config_.portFile,
                   " now names this daemon (port ", port(), ")");
    }
    installMutationObserver();
    standby_.reset();
    updateReplicaMetrics();
}

std::string
SolverDaemon::replicaInfoLine() const
{
    if (standby_) {
        uint64_t iteration = solver_.iterations();
        uint64_t primary_iteration = standby_->primaryIteration();
        uint64_t behind = primary_iteration > iteration
                              ? primary_iteration - iteration
                              : 0;
        return format(
            "role=standby state=%s applied=%llu lag=%llu lag_s=%.1f "
            "hash=%s",
            standby_->status().c_str(),
            (unsigned long long)standby_->lastAppliedSeq(),
            (unsigned long long)standby_->lagRecords(),
            double(behind) * (config_.iterationSeconds > 0
                                  ? config_.iterationSeconds
                                  : 1.0),
            hashVerdictName(standby_->lastHashVerdict()));
    }
    if (replicator_) {
        return format(
            "role=primary appended=%llu acked=%llu standbys=%zu "
            "hash=%s",
            (unsigned long long)(nextSeq_ - 1),
            (unsigned long long)replicator_->ackedSeq(),
            replicator_->standbyCount(),
            hashVerdictName(replicator_->lastHashVerdict()));
    }
    if (wal_)
        return format("role=primary wal_records=%llu (no standbys "
                      "configured)",
                      (unsigned long long)wal_->recordsAppended());
    return "replication disabled";
}

} // namespace proto
} // namespace mercury
