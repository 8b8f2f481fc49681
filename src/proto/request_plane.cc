#include "proto/request_plane.hh"

#include <chrono>
#include <variant>

#include "proto/solver_service.hh"
#include "telemetry/reader.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace proto {

namespace {

using Clock = std::chrono::steady_clock;

/** Bounded wait per recvMany call; workers re-check stop_ at this
 *  cadence, so it is also the shutdown latency bound. */
constexpr double kWorkerPollSeconds = 0.05;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

RequestPlane::RequestPlane(SolverService &service, Config config)
    : service_(service), config_(config)
{
    if (config_.serveThreads < 1)
        config_.serveThreads = 1;
    if (!config_.registry)
        config_.registry = &metrics::Registry::global();

    // Instruments first: the daemon builds the telemetry Writer (which
    // freezes its shm metric-name table) after constructing the plane,
    // so everything must be registered here, not lazily in start().
    metrics::Registry &reg = *config_.registry;
    batchHist_ = reg.histogram(
        "net_batch_size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0},
        "datagrams drained per recvMany wake-up");
    handleHist_ = reg.histogram(
        "net_request_handle_seconds", metrics::Histogram::latencyBounds(),
        "decode+dispatch+reply cost of one received packet");
    busyGauge_ = reg.gauge(
        "net_worker_busy_seconds",
        "cumulative wall-clock the serve workers spent processing");
    sendErrors_ = reg.counter(
        "net_reply_send_errors_total",
        "reply datagrams that failed to send (or sent short)");
    metricsGuard_.add(reg, "net_request_queue_depth",
                      "mutations waiting for the solver thread",
                      [this] { return double(queueDepth()); });
    metricsGuard_.add(reg, "net_serve_workers",
                      "serve worker shards on the request plane",
                      [this] { return double(workers()); });

    // Shard 0 claims the configured port (possibly ephemeral); the
    // rest join it. Every socket sets SO_REUSEPORT *before* bind when
    // sharding — the kernel only groups sockets that all asked for it.
    const bool sharded = config_.serveThreads > 1;
    for (unsigned i = 0; i < config_.serveThreads; ++i) {
        auto shard = std::make_unique<Shard>();
        uint16_t bind_port =
            i == 0 ? config_.port : shards_[0]->socket.localPort();
        shard->socket.bind(bind_port, sharded);
        if (!config_.shmName.empty())
            shard->reader =
                std::make_unique<telemetry::Reader>(config_.shmName);
        shards_.push_back(std::move(shard));
    }
}

RequestPlane::~RequestPlane()
{
    stopAndJoin();
}

uint16_t
RequestPlane::port() const
{
    return shards_.empty() ? 0 : shards_[0]->socket.localPort();
}

void
RequestPlane::start()
{
    if (started_)
        return;
    started_ = true;
    stop_.store(false, std::memory_order_relaxed);
    for (auto &shard : shards_)
        shard->thread = std::thread([this, s = shard.get()] {
            workerLoop(*s);
        });
}

void
RequestPlane::stopAndJoin()
{
    stop_.store(true, std::memory_order_relaxed);
    for (auto &shard : shards_) {
        if (shard->thread.joinable())
            shard->thread.join();
    }
    started_ = false;
}

void
RequestPlane::wake()
{
    {
        std::lock_guard<std::mutex> guard(queueMutex_);
        wakeRequested_ = true;
    }
    queueCv_.notify_all();
}

bool
RequestPlane::waitForWork(Clock::time_point deadline)
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    queueCv_.wait_until(lock, deadline, [this] { return wakeRequested_; });
    wakeRequested_ = false;
    return !queue_.empty();
}

size_t
RequestPlane::drainPending()
{
    std::vector<Pending> batch;
    {
        std::lock_guard<std::mutex> guard(queueMutex_);
        batch.swap(queue_);
        queueDepth_.fetch_sub(batch.size(), std::memory_order_relaxed);
    }
    if (batch.empty())
        return 0;

    for (Pending &pending : batch) {
        auto start = Clock::now();
        if (mutationObserver_)
            mutationObserver_(pending.message);
        auto reply = service_.handleQueued(pending.message);
        if (reply && pending.via) {
            net::UdpSocket::SendDatagram item;
            item.to = pending.from;
            item.data = reply->data();
            item.length = reply->size();
            // Reply through the shard socket the request arrived on:
            // the source port then matches what the client targeted.
            sendReplies(*pending.via, &item, 1);
        }
        handleHist_->observe(secondsSince(start));
    }
    return batch.size();
}

uint64_t
RequestPlane::replySendErrors() const
{
    return sendErrors_->value();
}

void
RequestPlane::workerLoop(Shard &shard)
{
    constexpr size_t kBatch = net::UdpSocket::kMaxBatch;
    std::vector<uint8_t> buffers(kBatch * kMessageSize);
    net::UdpSocket::RecvDatagram metas[kBatch];
    std::vector<net::UdpSocket::SendDatagram> replies;
    std::vector<Packet> reply_bufs;
    replies.reserve(kBatch);
    // SendDatagram::data points into reply_bufs; reserving the worst
    // case up front keeps those pointers stable across push_backs.
    reply_bufs.reserve(kBatch);

    while (!stop_.load(std::memory_order_relaxed)) {
        size_t got = shard.socket.recvMany(buffers.data(), kMessageSize,
                                           metas, kBatch,
                                           kWorkerPollSeconds);
        if (got == 0)
            continue;
        auto busy_start = Clock::now();
        batchHist_->observe(double(got));
        replies.clear();
        reply_bufs.clear();
        for (size_t i = 0; i < got; ++i) {
            auto start = Clock::now();
            handleDatagram(shard, buffers.data() + i * kMessageSize,
                           metas[i].length, metas[i].from, replies,
                           reply_bufs);
            handleHist_->observe(secondsSince(start));
        }
        if (!replies.empty())
            sendReplies(shard.socket, replies.data(), replies.size());
        busyGauge_->add(secondsSince(busy_start));
    }
}

void
RequestPlane::handleDatagram(
    Shard &shard, const uint8_t *data, size_t length,
    const net::Endpoint &from,
    std::vector<net::UdpSocket::SendDatagram> &replies,
    std::vector<Packet> &reply_bufs)
{
    auto push_reply = [&](const Packet &packet) {
        reply_bufs.push_back(packet);
        net::UdpSocket::SendDatagram item;
        item.to = from;
        item.data = reply_bufs.back().data();
        item.length = reply_bufs.back().size();
        replies.push_back(item);
    };

    std::optional<Message> message = decode(data, length);
    if (!message) {
        service_.countUndecodable();
        return;
    }
    // variant index 0 is UtilizationUpdate == MessageType 1, etc.
    service_.countReceived(static_cast<MessageType>(message->index() + 1));

    if (const auto *update = std::get_if<UtilizationUpdate>(&*message)) {
        // Sequence accounting happens now, not when the solver thread
        // gets around to the queue — loss numbers measure the network,
        // not our scheduling.
        service_.noteSequence(update->machine, update->sequence,
                              update->backlog);
        enqueue(std::move(*message), from, &shard.socket);
        return;
    }
    if (const auto *request = std::get_if<SensorRequest>(&*message)) {
        Packet reply;
        if (answerSensor(shard, *request, &reply))
            push_reply(reply);
        else
            enqueue(std::move(*message), from, &shard.socket);
        return;
    }
    if (const auto *request = std::get_if<MultiReadRequest>(&*message)) {
        Packet reply;
        if (answerMultiRead(shard, *request, &reply))
            push_reply(reply);
        else
            enqueue(std::move(*message), from, &shard.socket);
        return;
    }
    if (const auto *request = std::get_if<FiddleRequest>(&*message)) {
        // Only the read-only `stats` is answered inline; every other
        // line mutates the solver (or saves a checkpoint) and belongs
        // to the solver thread.
        std::string line = trim(request->commandLine);
        if (line == "stats" || line == "fiddle stats") {
            FiddleReply reply;
            reply.requestId = request->requestId;
            reply.status = Status::Ok;
            reply.message = service_.statsLine().substr(0, 110);
            push_reply(encode(reply));
            return;
        }
        enqueue(std::move(*message), from, &shard.socket);
        return;
    }
    if (const auto *request = std::get_if<MetricsRequest>(&*message)) {
        push_reply(service_.metricsReply(*request,
                                         shard.metricsPageCache));
        return;
    }
    // Reply types arriving at the server are peer bugs; drop them
    // (counted the same way the synchronous dispatch does).
    service_.countUndecodable();
}

bool
RequestPlane::answerSensor(Shard &shard, const SensorRequest &msg,
                           Packet *reply_out)
{
    if (!shard.reader)
        return false;
    auto resolution =
        shard.reader->resolveDetailed(msg.machine, msg.component);
    SensorReply reply;
    reply.requestId = msg.requestId;
    switch (resolution.status) {
    case telemetry::Reader::ResolveStatus::Unavailable:
        return false; // no snapshot; the solver thread answers
    case telemetry::Reader::ResolveStatus::UnknownMachine:
        reply.status = Status::UnknownMachine;
        break;
    case telemetry::Reader::ResolveStatus::UnknownComponent:
        reply.status = Status::UnknownComponent;
        break;
    case telemetry::Reader::ResolveStatus::Ok: {
        auto sample = shard.reader->read(resolution.slot);
        if (!sample)
            return false; // raced a writer remap; fall back
        reply.status = Status::Ok;
        reply.temperature = sample->temperature;
        service_.countSensorRead();
        break;
    }
    }
    *reply_out = encode(reply);
    return true;
}

bool
RequestPlane::answerMultiRead(Shard &shard, const MultiReadRequest &msg,
                              Packet *reply_out)
{
    if (!shard.reader)
        return false;

    MultiReadReply reply;
    reply.requestId = msg.requestId;

    // Probe the machine first (an empty component resolves to
    // UnknownComponent on a known machine) so the machine-level status
    // matches the solver path even for an empty component list.
    auto probe = shard.reader->resolveDetailed(
        msg.machine,
        msg.components.empty() ? std::string() : msg.components.front());
    if (probe.status == telemetry::Reader::ResolveStatus::Unavailable)
        return false;
    if (probe.status == telemetry::Reader::ResolveStatus::UnknownMachine) {
        reply.status = Status::UnknownMachine;
        *reply_out = encode(reply);
        return true;
    }

    reply.status = Status::Ok;
    reply.entries.reserve(msg.components.size());
    uint64_t reads = 0;
    for (const std::string &component : msg.components) {
        auto resolution =
            shard.reader->resolveDetailed(msg.machine, component);
        MultiReadEntry entry;
        if (resolution.status == telemetry::Reader::ResolveStatus::Ok) {
            auto sample = shard.reader->read(resolution.slot);
            if (!sample)
                return false; // raced a remap mid-reply; fall back
            entry.status = Status::Ok;
            entry.temperature = sample->temperature;
            ++reads;
        } else if (resolution.status ==
                   telemetry::Reader::ResolveStatus::Unavailable) {
            return false;
        } else {
            entry.status = Status::UnknownComponent;
        }
        reply.entries.push_back(entry);
    }
    service_.countSensorRead(reads);
    service_.countMultiRead();
    *reply_out = encode(reply);
    return true;
}

void
RequestPlane::enqueue(Message message, const net::Endpoint &from,
                      net::UdpSocket *via)
{
    // A utilization update owes nobody a reply and only matters at the
    // next iteration, so it waits for the solver thread's next wake
    // (iteration deadline, timer poll, or a request behind it) instead
    // of causing one, unless it fills the group. Everything else queued
    // here has a client waiting.
    const bool owes_reply =
        !std::holds_alternative<UtilizationUpdate>(message);
    bool wake = false;
    {
        std::lock_guard<std::mutex> guard(queueMutex_);
        queue_.push_back(Pending{std::move(message), from, via});
        queueDepth_.fetch_add(1, std::memory_order_relaxed);
        if (!wakeRequested_ &&
            (owes_reply || queue_.size() >= kGroupCommitMax))
            wake = wakeRequested_ = true;
    }
    if (wake)
        queueCv_.notify_one();
}

void
RequestPlane::sendReplies(net::UdpSocket &via,
                          const net::UdpSocket::SendDatagram *items,
                          size_t count)
{
    size_t first_error = count;
    size_t sent = via.sendMany(items, count, &first_error);
    if (sent == count)
        return;
    sendErrors_->inc(count - sent);
    if (first_error < count)
        noteSendFailure(items[first_error].to);
}

void
RequestPlane::noteSendFailure(const net::Endpoint &to)
{
    std::string peer = to.toString();
    std::lock_guard<std::mutex> guard(sendWarnMutex_);
    if (warnedPeers_.insert(peer).second) {
        warn("request plane: failed to send reply to ", peer,
             " (further failures to this peer counted in "
             "net_reply_send_errors_total, not logged)");
    }
}

} // namespace proto
} // namespace mercury
