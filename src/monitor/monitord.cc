#include "monitor/monitord.hh"

#include "proto/solver_service.hh"
#include "util/logging.hh"

namespace mercury {
namespace monitor {

Monitord::Monitord(std::string machine,
                   std::unique_ptr<UtilizationSource> source, Sink sink)
    : machine_(std::move(machine)), source_(std::move(source)),
      sink_(std::move(sink))
{
    if (!source_)
        MERCURY_PANIC("Monitord: null source");
    if (!sink_)
        MERCURY_PANIC("Monitord: null sink");
}

void
Monitord::tick(double now_seconds)
{
    for (const Reading &reading : source_->sample(now_seconds)) {
        proto::UtilizationUpdate update;
        update.machine = machine_;
        update.component = reading.component;
        update.utilization = reading.utilization;
        if (guard_) {
            guard::TrustedSample sample =
                guard_->filter(machine_ + "." + reading.component,
                               now_seconds, reading.utilization);
            if (sample.hasValue) {
                update.utilization = sample.value;
                update.substituted = sample.substituted ? 1 : 0;
                if (sample.substituted)
                    ++updatesSubstituted_;
            }
        }
        update.sequence = sequence_++;
        if (backlogEnabled_ && !online_) {
            if (backlog_.size() >= backlogConfig_.capacity) {
                backlog_.pop_front();
                ++backlogDropped_;
            }
            backlog_.push_back({std::move(update), now_seconds});
            continue;
        }
        sink_(update);
        ++updatesSent_;
    }
}

void
Monitord::enableBacklog(BacklogConfig config)
{
    if (config.capacity == 0)
        MERCURY_PANIC("Monitord::enableBacklog: zero capacity");
    backlogEnabled_ = true;
    backlogConfig_ = config;
}

void
Monitord::setOnline(bool online)
{
    if (online == online_)
        return;
    online_ = online;
    if (online_)
        flushBacklog();
}

void
Monitord::flushBacklog()
{
    if (backlog_.empty())
        return;
    if (backlogConfig_.policy == GapFillPolicy::HoldLast) {
        // Keep only the newest sample per component; earlier ones were
        // superseded during the outage. Their sequences go unsent on
        // purpose — the solver counts them as losses, which they are.
        for (size_t i = 0; i < backlog_.size(); ++i) {
            bool superseded = false;
            for (size_t j = i + 1; j < backlog_.size(); ++j) {
                if (backlog_[j].update.component ==
                    backlog_[i].update.component) {
                    superseded = true;
                    break;
                }
            }
            if (superseded) {
                backlog_[i].update.machine.clear(); // mark skipped
                ++backlogDropped_;
            }
        }
    }
    while (!backlog_.empty()) {
        QueuedSample sample = std::move(backlog_.front());
        backlog_.pop_front();
        if (sample.update.machine.empty())
            continue; // hold-last skip
        sample.update.backlog =
            static_cast<uint32_t>(backlog_.size());
        sink_(sample.update);
        ++updatesSent_;
        ++backlogReplayed_;
    }
}

Monitord::Sink
Monitord::serviceSink(proto::SolverService &service)
{
    return [&service](const proto::UtilizationUpdate &update) {
        proto::Packet packet = proto::encode(update);
        service.handlePacket(packet.data(), packet.size());
    };
}

Monitord::Sink
Monitord::faultySink(Sink inner,
                     std::shared_ptr<net::FaultInjector> injector)
{
    if (!inner)
        MERCURY_PANIC("Monitord::faultySink: null inner sink");
    if (!injector)
        MERCURY_PANIC("Monitord::faultySink: null injector");
    // A reordered update is held back (with its duplicate count) and
    // released once a later update has overtaken it.
    struct Held
    {
        proto::UtilizationUpdate update;
        int copies = 1;
    };
    auto held = std::make_shared<std::optional<Held>>();
    auto release = [inner, held] {
        if (!*held)
            return;
        for (int copy = 0; copy < (*held)->copies; ++copy)
            inner((*held)->update);
        held->reset();
    };
    return [inner, injector, held,
            release](const proto::UtilizationUpdate &u) {
        net::FaultPlan plan = injector->plan();
        if (plan.drop)
            return;
        if (plan.reordered) {
            release(); // the previous hold has now been overtaken
            *held = Held{u, plan.copies};
            return;
        }
        for (int copy = 0; copy < plan.copies; ++copy)
            inner(u);
        release();
    };
}

UpdateBatcher::UpdateBatcher(std::shared_ptr<net::UdpSocket> socket,
                             net::Endpoint solver)
    : socket_(std::move(socket)), solver_(solver)
{
    if (!socket_)
        MERCURY_PANIC("UpdateBatcher: null socket");
    queued_.reserve(net::UdpSocket::kMaxBatch);
}

Monitord::Sink
UpdateBatcher::sink()
{
    return [this](const proto::UtilizationUpdate &update) {
        push(update);
    };
}

void
UpdateBatcher::push(const proto::UtilizationUpdate &update)
{
    queued_.push_back(proto::encode(update));
    if (queued_.size() >= net::UdpSocket::kMaxBatch)
        flush();
}

void
UpdateBatcher::flush()
{
    if (queued_.empty())
        return;
    std::vector<net::UdpSocket::SendDatagram> items;
    items.reserve(queued_.size());
    for (const proto::Packet &packet : queued_) {
        net::UdpSocket::SendDatagram item;
        item.to = solver_;
        item.data = packet.data();
        item.length = packet.size();
        items.push_back(item);
    }
    size_t sent = socket_->sendMany(items.data(), items.size());
    datagramsSent_ += sent;
    if (sent < items.size()) {
        sendErrors_ += items.size() - sent;
        // Updates are fire-and-forget; the solver's sequence tracking
        // surfaces the loss. Warn once so a dead route is visible.
        if (!warnedSendFailure_) {
            warnedSendFailure_ = true;
            warn("monitord: failed to send ", items.size() - sent,
                 " update(s) to ", solver_.toString(),
                 " (counted, not re-logged)");
        }
    }
    queued_.clear();
}

} // namespace monitor
} // namespace mercury
