#include "proto/solver_service.hh"

#include <algorithm>

#include "core/solver.hh"
#include "fiddle/command.hh"
#include "guard/sensor_guard.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace proto {

SolverService::SolverService(core::Solver &solver)
    : solver_(solver)
{
}

std::optional<Packet>
SolverService::handlePacket(const uint8_t *data, size_t length)
{
    std::optional<Message> message = decode(data, length);
    if (!message) {
        bump(undecodable_);
        return std::nullopt;
    }
    return handle(*message);
}

std::optional<Packet>
SolverService::handle(const Message &message)
{
    return dispatch(message, /*preaccounted=*/false);
}

std::optional<Packet>
SolverService::handleQueued(const Message &message)
{
    return dispatch(message, /*preaccounted=*/true);
}

void
SolverService::handleReplicated(const Message &message)
{
    // Not preaccounted: a standby's receive counters should mirror
    // the primary's, and nothing upstream counted this message.
    dispatch(message, /*preaccounted=*/false, /*replicated=*/true);
}

void
SolverService::setReadOnly(bool read_only, std::string reason)
{
    readOnly_ = read_only;
    readOnlyReason_ = std::move(reason);
}

std::optional<Packet>
SolverService::dispatch(const Message &message, bool preaccounted,
                        bool replicated)
{
    if (!preaccounted) {
        // variant index 0 is UtilizationUpdate == MessageType 1, etc.
        size_t type = message.index() + 1;
        if (type < receivedByType_.size())
            bump(receivedByType_[type]);
    }

    if (const auto *update = std::get_if<UtilizationUpdate>(&message)) {
        // A read-only standby takes state only from the replication
        // stream; a monitord aimed at it directly is a configuration
        // error, not an input source.
        if (readOnly_ && !replicated) {
            bump(updatesRefusedReadOnly_);
            return std::nullopt;
        }
        onUtilization(*update, /*note_sequence=*/!preaccounted);
        return std::nullopt; // one-way, like the paper's monitord
    }
    if (const auto *request = std::get_if<SensorRequest>(&message))
        return onSensorRequest(*request);
    if (const auto *request = std::get_if<MultiReadRequest>(&message))
        return onMultiReadRequest(*request);
    if (const auto *request = std::get_if<FiddleRequest>(&message))
        return onFiddleRequest(*request, replicated);
    if (const auto *request = std::get_if<MetricsRequest>(&message))
        return metricsReply(*request, metricsPageCache_);
    // Reply types arriving at the server are peer bugs; drop them.
    bump(undecodable_);
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
SolverService::noteSequence(const std::string &machine, uint64_t sequence,
                            uint32_t backlog)
{
    SenderStripe &stripe = stripeFor(machine);
    std::lock_guard<std::mutex> guard(stripe.mutex);
    SenderState &sender = stripe.senders[machine];
    sender.note(sequence);
    sender.lastBacklog = backlog;
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

std::vector<state::SenderRecord>
SolverService::exportSenders() const
{
    std::vector<state::SenderRecord> records;
    for (const SenderStripe &stripe : senders_) {
        std::lock_guard<std::mutex> guard(stripe.mutex);
        records.reserve(records.size() + stripe.senders.size());
        for (const auto &[machine, sender] : stripe.senders) {
            state::SenderRecord record;
            record.machine = machine;
            record.started = sender.started;
            record.head = sender.head;
            record.window = sender.window;
            record.received = sender.received;
            record.lost = sender.lost;
            record.duplicates = sender.duplicates;
            record.reordered = sender.reordered;
            record.lastBacklog = sender.lastBacklog;
            records.push_back(std::move(record));
        }
    }
    // Stripe order is hash order; sort so checkpoints are byte-stable
    // across runs (and across stripe-count changes).
    std::sort(records.begin(), records.end(),
              [](const state::SenderRecord &a, const state::SenderRecord &b) {
                  return a.machine < b.machine;
              });
    return records;
}

void
SolverService::importSenders(const std::vector<state::SenderRecord> &records)
{
    for (const state::SenderRecord &record : records) {
        if (record.machine.empty())
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

void
SolverService::countReceived(MessageType type)
{
    size_t index = static_cast<size_t>(type);
    if (index < receivedByType_.size())
        bump(receivedByType_[index]);
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

Packet
SolverService::onUtilization(const UtilizationUpdate &msg,
                             bool note_sequence)
{
    // Sequence accounting is transport health: track it even when the
    // target cannot be resolved, so loss numbers stay truthful. The
    // sharded request plane notes the sequence at receive time instead
    // (before the update waits in the mutation queue) and dispatches
    // through handleQueued, which skips this to avoid double counting.
    if (note_sequence)
        noteSequence(msg.machine, msg.sequence, msg.backlog);
    if (msg.substituted)
        bump(updatesSubstituted_);

    auto ref = resolveCached(msg.machine, msg.component);
    if (!ref || !solver_.isPowered(*ref)) {
        bump(updatesRejected_);
        std::string key = msg.machine + "." + msg.component;
        if (warnedTargets_.insert(key).second) {
            warn("solver: dropping utilization updates for ", key,
                 " (no powered node; further drops are silent)");
        }
        return Packet{};
    }
    solver_.setUtilization(*ref, msg.utilization);
    bump(updatesApplied_);
    return Packet{};
}

Packet
SolverService::onSensorRequest(const SensorRequest &msg)
{
    SensorReply reply;
    reply.requestId = msg.requestId;
    if (!solver_.hasMachine(msg.machine)) {
        reply.status = Status::UnknownMachine;
        return encode(reply);
    }
    auto ref = resolveCached(msg.machine, msg.component);
    if (!ref) {
        reply.status = Status::UnknownComponent;
        return encode(reply);
    }
    reply.status = Status::Ok;
    reply.temperature = solver_.temperature(*ref);
    bump(sensorReads_);
    return encode(reply);
}

Packet
SolverService::onMultiReadRequest(const MultiReadRequest &msg)
{
    MultiReadReply reply;
    reply.requestId = msg.requestId;
    if (!solver_.hasMachine(msg.machine)) {
        reply.status = Status::UnknownMachine;
        return encode(reply);
    }
    reply.status = Status::Ok;
    reply.entries.reserve(msg.components.size());
    for (const std::string &component : msg.components) {
        MultiReadEntry entry;
        auto ref = resolveCached(msg.machine, component);
        if (!ref) {
            entry.status = Status::UnknownComponent;
        } else {
            entry.status = Status::Ok;
            entry.temperature = solver_.temperature(*ref);
            bump(sensorReads_);
        }
        reply.entries.push_back(entry);
    }
    bump(multiReads_);
    return encode(reply);
}

Packet
SolverService::onFiddleRequest(const FiddleRequest &msg, bool replicated)
{
    FiddleReply reply;
    reply.requestId = msg.requestId;

    // `fiddle stats` is answered here, not by the command language:
    // the counters live in the service, not the solver.
    std::string line = trim(msg.commandLine);
    if (line == "stats" || line == "fiddle stats") {
        reply.status = Status::Ok;
        reply.message = statsLine().substr(0, 110);
        return encode(reply);
    }

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
