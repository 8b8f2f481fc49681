#include "proto/solver_service.hh"

#include <algorithm>
#include <variant>

#include "core/solver.hh"
#include "fiddle/command.hh"
#include "guard/sensor_guard.hh"
#include "telemetry/layout.hh"
#include "telemetry/reader.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace proto {

SolverService::SolverService(core::Solver &solver)
    : solver_(solver)
{
}

SolverService::Received
SolverService::receive(const uint8_t *data, size_t length,
                       telemetry::Reader *snapshot, std::string &page_cache)
{
    // Decoded straight into pending: a queued message is never copied.
    Received received{std::nullopt, decode(data, length)};
    if (!received.pending) {
        bump(undecodable_);
        return received;
    }
    const Message &message = *received.pending;
    account(message);

    if (const auto *request = std::get_if<SensorRequest>(&message)) {
        if (snapshot)
            received.reply = answerSensor(*request, *snapshot);
    } else if (const auto *request =
                   std::get_if<MultiReadRequest>(&message)) {
        if (snapshot)
            received.reply = answerMultiRead(*request, *snapshot);
    } else if (const auto *request = std::get_if<FiddleRequest>(&message)) {
        // `fiddle stats` reads only the service's counters. Every other
        // line mutates the solver, saves a checkpoint or reads
        // solver-thread state: it belongs to the solver thread.
        std::string line = trim(request->commandLine);
        if (line == "stats" || line == "fiddle stats") {
            FiddleReply reply;
            reply.requestId = request->requestId;
            reply.status = Status::Ok;
            reply.message = statsLine().substr(0, 110);
            received.reply = encode(reply);
        }
    } else if (const auto *request =
                   std::get_if<MetricsRequest>(&message)) {
        received.reply = metricsReply(*request, page_cache);
    } else if (!std::holds_alternative<UtilizationUpdate>(message)) {
        // Reply types arriving at the server are peer bugs; drop them.
        bump(undecodable_);
        received.pending.reset();
    }
    if (received.reply)
        received.pending.reset();
    return received;
}

std::optional<Packet>
SolverService::apply(const Message &message)
{
    return dispatch(message, /*replicated=*/false);
}

std::optional<Packet>
SolverService::handlePacket(const uint8_t *data, size_t length)
{
    Received received =
        receive(data, length, /*snapshot=*/nullptr, metricsPageCache_);
    if (received.pending)
        return apply(*received.pending);
    return received.reply;
}

void
SolverService::handleReplicated(const Message &message)
{
    account(message);
    dispatch(message, /*replicated=*/true);
}

void
SolverService::setReadOnly(bool read_only, std::string reason)
{
    readOnly_ = read_only;
    readOnlyReason_ = std::move(reason);
}

void
SolverService::account(const Message &message)
{
    // variant index 0 is UtilizationUpdate == MessageType 1, etc.
    static_assert(std::variant_size_v<Message> < 10);
    bump(receivedByType_[message.index() + 1]);
    // Sequence accounting happens at receive time, not when the solver
    // thread gets around to the queue: loss numbers measure the
    // network, not our scheduling.
    if (const auto *update = std::get_if<UtilizationUpdate>(&message))
        noteSequence(*update);
}

std::optional<Packet>
SolverService::dispatch(const Message &message, bool replicated)
{
    if (const auto *update = std::get_if<UtilizationUpdate>(&message)) {
        // A read-only standby takes state only from the replication
        // stream; a monitord aimed at it directly is a configuration
        // error, not an input source.
        if (readOnly_ && !replicated) {
            bump(updatesRefusedReadOnly_);
            return std::nullopt;
        }
        onUtilization(*update);
        return std::nullopt; // one-way, like the paper's monitord
    }
    if (const auto *request = std::get_if<SensorRequest>(&message))
        return answerSensor(*request, solver_);
    if (const auto *request = std::get_if<MultiReadRequest>(&message))
        return answerMultiRead(*request, solver_);
    if (const auto *request = std::get_if<FiddleRequest>(&message))
        return onFiddleRequest(*request, replicated);
    // receive() answers or drops everything else itself.
    return std::nullopt;
}

void
SolverService::setMetricsRegistry(metrics::Registry *registry)
{
    metricsGuard_.release();
    metricsRegistry_ = registry;
    if (!registry)
        return;
    metrics::Registry &reg = *registry;
    metricsGuard_.add(reg, "net_updates_applied_total",
                      "utilization updates applied to the solver",
                      [this] { return double(updatesApplied()); });
    metricsGuard_.add(reg, "net_updates_rejected_total",
                      "utilization updates with no powered target node",
                      [this] { return double(updatesRejected()); });
    metricsGuard_.add(reg, "net_updates_refused_readonly_total",
                      "updates refused because this daemon is a "
                      "read-only standby",
                      [this] { return double(updatesRefusedReadOnly()); });
    metricsGuard_.add(reg, "net_updates_substituted_total",
                      "updates whose sender flagged a guard-substituted "
                      "value",
                      [this] { return double(updatesSubstituted()); });
    metricsGuard_.add(reg, "net_sensor_reads_total",
                      "sensor temperatures served (single + batched)",
                      [this] { return double(sensorReads()); });
    metricsGuard_.add(reg, "net_multi_reads_total",
                      "MultiRead datagrams served",
                      [this] { return double(multiReads()); });
    metricsGuard_.add(reg, "net_fiddles_applied_total",
                      "fiddle commands applied",
                      [this] { return double(fiddlesApplied()); });
    metricsGuard_.add(reg, "net_undecodable_total",
                      "packets dropped as undecodable or misdirected",
                      [this] { return double(undecodable()); });
    metricsGuard_.add(reg, "net_updates_lost_total",
                      "sequence gaps still unfilled, all senders",
                      [this] { return double(lossStats().lost); });
    metricsGuard_.add(reg, "net_updates_duplicate_total",
                      "duplicate sequence numbers, all senders",
                      [this] { return double(lossStats().duplicates); });
    metricsGuard_.add(reg, "net_updates_reordered_total",
                      "late-arriving updates, all senders",
                      [this] { return double(lossStats().reordered); });
    metricsGuard_.add(reg, "net_update_senders",
                      "distinct machines with sequence tracking",
                      [this] { return double(lossStats().senders); });
    metricsGuard_.add(reg, "net_backlog_depth",
                      "samples queued in sender outage backlogs",
                      [this] { return double(backlogDepth()); });
}

std::optional<core::Solver::NodeRef>
SolverService::resolveCached(const std::string &machine,
                             const std::string &component)
{
    auto hit = resolved_.find(machine);
    if (hit != resolved_.end()) {
        for (const auto &[name, ref] : hit->second) {
            if (name == component)
                return ref;
        }
    }
    auto ref = solver_.tryResolveRef(machine, component);
    if (ref) {
        if (hit == resolved_.end())
            hit = resolved_.try_emplace(machine).first;
        hit->second.emplace_back(component, *ref);
    }
    return ref;
}

void
SolverService::SenderState::note(uint64_t sequence)
{
    ++received;
    if (!started) {
        started = true;
        head = sequence;
        window = 1;
        return;
    }
    if (sequence > head) {
        uint64_t advance = sequence - head;
        lost += advance - 1; // provisional: late arrivals un-count
        window = advance >= 64 ? 0 : window << advance;
        window |= 1;
        head = sequence;
        return;
    }
    uint64_t back = head - sequence;
    if (back >= 64) {
        // Too old to say whether it was counted lost; call it a
        // reorder and leave the loss count alone.
        ++reordered;
        return;
    }
    uint64_t bit = uint64_t{1} << back;
    if (window & bit) {
        ++duplicates;
    } else {
        window |= bit;
        ++reordered;
        if (lost > 0)
            --lost;
    }
}

SolverService::SenderStripe &
SolverService::stripeFor(const std::string &machine)
{
    return senders_[std::hash<std::string>{}(machine) % kSenderStripes];
}

const SolverService::SenderStripe &
SolverService::stripeFor(const std::string &machine) const
{
    return senders_[std::hash<std::string>{}(machine) % kSenderStripes];
}

void
SolverService::noteSequence(const UtilizationUpdate &msg)
{
    SenderStripe &stripe = stripeFor(msg.machine);
    std::lock_guard<std::mutex> guard(stripe.mutex);
    auto it = stripe.senders.find(msg.machine);
    if (it == stripe.senders.end()) {
        // Only the solver's own machines get a tracker: a name from
        // outside would otherwise grow the table, and every
        // checkpoint, for good. Asked once per tracked sender, not per
        // update: the directory lookup costs more than the note.
        if (!solver_.hasMachine(msg.machine))
            return;
        it = stripe.senders.try_emplace(msg.machine).first;
    }
    it->second.note(msg.sequence);
    it->second.lastBacklog = msg.backlog;
}

uint64_t
SolverService::backlogDepth() const
{
    uint64_t depth = 0;
    for (const SenderStripe &stripe : senders_) {
        std::lock_guard<std::mutex> guard(stripe.mutex);
        for (const auto &[machine, state] : stripe.senders) {
            (void)machine;
            depth += state.lastBacklog;
        }
    }
    return depth;
}

void
SolverService::exportSenders(std::vector<state::SenderRecord> &records) const
{
    exportOrder_.clear();
    for (const SenderStripe &stripe : senders_) {
        std::lock_guard<std::mutex> guard(stripe.mutex);
        // Keys stay put: the table never erases, and a rehash moves no
        // node, so the name pointers outlive the lock.
        for (const auto &[machine, sender] : stripe.senders)
            exportOrder_.emplace_back(&machine, sender);
    }
    // Stripe order is hash order; sort so checkpoints are byte-stable
    // across runs (and across stripe-count changes). Written in that
    // order, each record keeps the name it had in the last export.
    std::sort(exportOrder_.begin(), exportOrder_.end(),
              [](const auto &a, const auto &b) {
                  return *a.first < *b.first;
              });
    records.resize(exportOrder_.size());
    for (size_t i = 0; i < exportOrder_.size(); ++i) {
        const auto &[machine, sender] = exportOrder_[i];
        state::SenderRecord &record = records[i];
        record.machine = *machine;
        record.started = sender.started;
        record.head = sender.head;
        record.window = sender.window;
        record.received = sender.received;
        record.lost = sender.lost;
        record.duplicates = sender.duplicates;
        record.reordered = sender.reordered;
        record.lastBacklog = sender.lastBacklog;
    }
}

void
SolverService::importSenders(const std::vector<state::SenderRecord> &records)
{
    for (const state::SenderRecord &record : records) {
        if (!solver_.hasMachine(record.machine))
            continue;
        SenderStripe &stripe = stripeFor(record.machine);
        std::lock_guard<std::mutex> guard(stripe.mutex);
        SenderState &sender = stripe.senders[record.machine];
        sender.started = record.started;
        sender.head = record.head;
        sender.window = record.window;
        sender.received = record.received;
        sender.lost = record.lost;
        sender.duplicates = record.duplicates;
        sender.reordered = record.reordered;
        sender.lastBacklog = record.lastBacklog;
    }
}

SolverService::LossStats
SolverService::lossStats() const
{
    LossStats stats;
    for (const SenderStripe &stripe : senders_) {
        std::lock_guard<std::mutex> guard(stripe.mutex);
        stats.senders += stripe.senders.size();
        for (const auto &[machine, state] : stripe.senders) {
            (void)machine;
            stats.received += state.received;
            stats.lost += state.lost;
            stats.duplicates += state.duplicates;
            stats.reordered += state.reordered;
        }
    }
    return stats;
}

uint64_t
SolverService::received(MessageType type) const
{
    size_t index = static_cast<size_t>(type);
    return index < receivedByType_.size() ? load(receivedByType_[index])
                                          : 0;
}

std::string
SolverService::statsLine() const
{
    LossStats loss = lossStats();
    // ck = seconds since the last successful checkpoint save (-1 =
    // never), rit = iteration the boot-time restore resumed from.
    long long ck_age = -1;
    unsigned long long restore_iteration = 0;
    if (checkpointManager_) {
        double age = checkpointManager_->lastSaveAgeSeconds();
        if (age >= 0.0)
            ck_age = static_cast<long long>(age);
        restore_iteration = static_cast<unsigned long long>(
            checkpointManager_->lastRestoreIteration());
    }
    // act/frz: the quiescence engine's active-set breathing — how many
    // machines stepped last iteration vs sat frozen at steady state.
    return format("it=%llu up=%llu rej=%llu lost=%llu dup=%llu ro=%llu "
                  "rd=%llu mrd=%llu fid=%llu bad=%llu blog=%llu "
                  "ck=%lld rit=%llu act=%llu frz=%llu",
                  static_cast<unsigned long long>(solver_.iterations()),
                  static_cast<unsigned long long>(updatesApplied()),
                  static_cast<unsigned long long>(updatesRejected()),
                  static_cast<unsigned long long>(loss.lost),
                  static_cast<unsigned long long>(loss.duplicates),
                  static_cast<unsigned long long>(loss.reordered),
                  static_cast<unsigned long long>(sensorReads()),
                  static_cast<unsigned long long>(multiReads()),
                  static_cast<unsigned long long>(fiddlesApplied()),
                  static_cast<unsigned long long>(undecodable()),
                  static_cast<unsigned long long>(backlogDepth()),
                  ck_age, restore_iteration,
                  static_cast<unsigned long long>(
                      solver_.activeMachineCount()),
                  static_cast<unsigned long long>(
                      solver_.frozenMachineCount()));
}

void
SolverService::onUtilization(const UtilizationUpdate &msg)
{
    if (msg.substituted)
        bump(updatesSubstituted_);

    auto ref = resolveCached(msg.machine, msg.component);
    if (!ref || !solver_.isPowered(*ref)) {
        bump(updatesRejected_);
        if (warnedTargets_.size() >= kMaxWarnedTargets)
            return;
        std::string key = msg.machine + "." + msg.component;
        if (!warnedTargets_.insert(key).second)
            return;
        warn("solver: dropping utilization updates for ", key,
             " (no powered node; further drops are silent)");
        if (warnedTargets_.size() == kMaxWarnedTargets)
            warn("solver: ", kMaxWarnedTargets,
                 " rejected update targets logged; further ones are "
                 "counted in net_updates_rejected_total, not logged");
        return;
    }
    solver_.setUtilization(*ref, msg.utilization);
    bump(updatesApplied_);
}

std::optional<SolverService::Reading>
SolverService::readFrom(telemetry::Reader &snapshot,
                        const std::string &machine,
                        const std::string &component)
{
    auto resolution = snapshot.resolveDetailed(machine, component);
    switch (resolution.status) {
      case telemetry::Reader::ResolveStatus::Unavailable:
        return std::nullopt;
      // The solver may know a name the snapshot could not publish.
      case telemetry::Reader::ResolveStatus::UnknownMachine:
        if (heldInPart(machine))
            return std::nullopt;
        return Reading{Status::UnknownMachine};
      case telemetry::Reader::ResolveStatus::UnknownComponent:
        if (heldInPart(machine))
            return std::nullopt;
        return Reading{Status::UnknownComponent};
      case telemetry::Reader::ResolveStatus::Ok:
        break;
    }
    auto sample = snapshot.read(resolution.slot);
    if (!sample)
        return std::nullopt; // raced a writer remap
    return Reading{Status::Ok, sample->temperature};
}

std::optional<SolverService::Reading>
SolverService::readFrom(core::Solver &solver, const std::string &machine,
                        const std::string &component)
{
    // A cached hit implies the machine; only a miss asks the directory.
    if (auto ref = resolveCached(machine, component))
        return Reading{Status::Ok, solver.temperature(*ref)};
    return Reading{solver.hasMachine(machine) ? Status::UnknownComponent
                                              : Status::UnknownMachine};
}

bool
SolverService::heldInPart(const std::string &machine)
{
    std::call_once(partialOnce_, [this] {
        auto wide = [](const std::string &name) {
            return name.size() >= telemetry::kNameWidth;
        };
        for (size_t i = 0; i < solver_.machineCount(); ++i) {
            const core::ThermalGraph &graph = solver_.machine(i);
            bool partial = wide(graph.name());
            for (core::NodeId id = 0; id < graph.nodeCount(); ++id)
                partial = partial || wide(graph.nodeName(id));
            for (const auto &[alias, node_name] : solver_.aliases()) {
                partial = partial || ((wide(alias) || wide(node_name)) &&
                                      graph.tryNodeId(node_name));
            }
            if (partial)
                partialMachines_.insert(graph.name());
        }
    });
    return partialMachines_.count(machine) != 0;
}

template <typename Source>
std::optional<Packet>
SolverService::answerSensor(const SensorRequest &msg, Source &source)
{
    std::optional<Reading> reading =
        readFrom(source, msg.machine, msg.component);
    if (!reading)
        return std::nullopt;
    SensorReply reply;
    reply.requestId = msg.requestId;
    reply.status = reading->status;
    reply.temperature = reading->temperature;
    if (reading->status == Status::Ok)
        bump(sensorReads_);
    return encode(reply);
}

template <typename Source>
std::optional<Packet>
SolverService::answerMultiRead(const MultiReadRequest &msg, Source &source)
{
    MultiReadReply reply;
    reply.requestId = msg.requestId;
    reply.entries.reserve(msg.components.size());
    uint64_t reads = 0;
    for (const std::string &component : msg.components) {
        std::optional<Reading> reading =
            readFrom(source, msg.machine, component);
        if (!reading)
            return std::nullopt;
        // A machine-level status: no entries, no reads counted.
        if (reading->status == Status::UnknownMachine) {
            reply.status = Status::UnknownMachine;
            reply.entries.clear();
            return encode(reply);
        }
        reply.entries.push_back({reading->status, reading->temperature});
        reads += reading->status == Status::Ok;
    }
    bump(sensorReads_, reads);
    bump(multiReads_);
    return encode(reply);
}

Packet
SolverService::onFiddleRequest(const FiddleRequest &msg, bool replicated)
{
    FiddleReply reply;
    reply.requestId = msg.requestId;
    std::string line = trim(msg.commandLine);

    // `fiddle checkpoint`: save on demand, synchronously, so an
    // operator can snapshot right before a risky intervention.
    if (line == "checkpoint" || line == "fiddle checkpoint") {
        if (!checkpointManager_) {
            reply.status = Status::BadCommand;
            reply.message = "no checkpoint path configured";
            return encode(reply);
        }
        std::string why;
        if (checkpointManager_->saveNow(&why)) {
            reply.status = Status::Ok;
            reply.message =
                "checkpoint saved (#" +
                std::to_string(checkpointManager_->saveCount()) + ")";
            bump(fiddlesApplied_);
        } else {
            reply.status = Status::InternalError;
            reply.message = why.substr(0, 110);
        }
        return encode(reply);
    }

    // `fiddle guard ...`: the sensor trust layer's health. Routed here
    // because the guard belongs to the solver thread, and the request
    // plane already queues every non-stats fiddle line onto it.
    if (line == "guard" || startsWith(line, "guard ")) {
        return onGuardCommand(trim(line.substr(5)), std::move(reply));
    }
    if (line == "fiddle guard" || startsWith(line, "fiddle guard ")) {
        return onGuardCommand(trim(line.substr(12)), std::move(reply));
    }

    // `fiddle replica`: replication health (role, stream positions,
    // lag, last state-hash verdict) from the daemon's provider.
    if (line == "replica" || line == "fiddle replica") {
        if (!replicaInfoProvider_) {
            reply.status = Status::Ok;
            reply.message = "replication disabled";
            return encode(reply);
        }
        reply.status = Status::Ok;
        reply.message = replicaInfoProvider_().substr(0, 110);
        return encode(reply);
    }

    // Everything past this point mutates the solver. A standby takes
    // mutations only from the replication stream; tell the operator
    // where to send the command instead of silently shadow-forking.
    if (readOnly_ && !replicated) {
        reply.status = Status::BadCommand;
        reply.message =
            ("read-only standby" +
             (readOnlyReason_.empty() ? std::string()
                                      : " (" + readOnlyReason_ + ")"))
                .substr(0, 110);
        return encode(reply);
    }

    fiddle::FiddleResult result =
        fiddle::applyLine(solver_, msg.commandLine);
    reply.status = result.ok ? Status::Ok : Status::BadCommand;
    // Clamp the diagnostic to the wire field.
    reply.message = result.message.substr(0, 110);
    if (result.ok)
        bump(fiddlesApplied_);
    return encode(reply);
}

Packet
SolverService::onGuardCommand(const std::string &args, FiddleReply reply)
{
    if (!sensorGuard_) {
        reply.status = Status::BadCommand;
        reply.message = "no sensor guard installed";
        return encode(reply);
    }
    guard::SensorGuard &guard = *sensorGuard_;
    if (args.empty()) {
        reply.status = Status::Ok;
        reply.message = guard.summaryLine().substr(0, 110);
        return encode(reply);
    }
    std::vector<std::string> words = splitWhitespace(args);
    if (words[0] == "page") {
        size_t offset = 0;
        if (words.size() > 1) {
            auto parsed = parseInt(words[1]);
            if (!parsed || *parsed < 0) {
                reply.status = Status::BadCommand;
                reply.message = "usage: guard page <offset>";
                return encode(reply);
            }
            offset = static_cast<size_t>(*parsed);
        }
        // Offset 0 renders a fresh report; later pages read the cache
        // so one client walks one consistent snapshot.
        if (offset == 0 || guardPageCache_.empty())
            guardPageCache_ = guard.report();
        if (offset >= guardPageCache_.size()) {
            reply.status = offset == 0 ? Status::Ok : Status::BadCommand;
            reply.message = "0|";
            return encode(reply);
        }
        // "<nextOffset>|<chunk>" inside the 110-byte reply field; 96
        // bytes of chunk leaves room for any plausible offset.
        size_t take =
            std::min<size_t>(96, guardPageCache_.size() - offset);
        size_t end = offset + take;
        size_t next = end < guardPageCache_.size() ? end : 0;
        reply.status = Status::Ok;
        reply.message = format("%zu|", next) +
                        guardPageCache_.substr(offset, take);
        return encode(reply);
    }
    // `guard <stream>`: one stream's health line.
    for (const auto &status : guard.streamStatuses()) {
        if (status.stream != words[0])
            continue;
        reply.status = Status::Ok;
        reply.message =
            format("%s %s reason=%s t_in_state=%.0fs last=%.2f",
                   status.stream.c_str(),
                   guard::healthStateName(status.state),
                   guard::classificationName(status.lastReason),
                   status.timeInState, status.lastValue)
                .substr(0, 110);
        return encode(reply);
    }
    reply.status = Status::BadCommand;
    reply.message = "unknown stream '" + words[0] + "'";
    reply.message = reply.message.substr(0, 110);
    return encode(reply);
}

Packet
SolverService::metricsReply(const MetricsRequest &msg,
                            std::string &page_cache) const
{
    MetricsReply reply;
    reply.requestId = msg.requestId;

    // Offset 0 starts a fresh snapshot; later pages read the cached
    // render so one client pages through one consistent snapshot even
    // while the counters keep moving.
    if (msg.offset == 0 || page_cache.empty()) {
        page_cache = metricsRegistry_ ? metricsRegistry_->renderSummary()
                                      : statsLine() + "\n";
    }

    if (msg.offset >= page_cache.size()) {
        reply.status = msg.offset == 0 ? Status::Ok : Status::BadCommand;
        reply.nextOffset = 0;
        return encode(reply);
    }

    size_t take =
        std::min(kMetricsFragmentMax, page_cache.size() - msg.offset);
    reply.status = Status::Ok;
    reply.fragment = page_cache.substr(msg.offset, take);
    size_t end = msg.offset + take;
    reply.nextOffset =
        end < page_cache.size() ? static_cast<uint32_t>(end) : 0;
    return encode(reply);
}

} // namespace proto
} // namespace mercury
