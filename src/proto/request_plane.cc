#include "proto/request_plane.hh"

#include <chrono>

#include "proto/solver_service.hh"
#include "telemetry/reader.hh"
#include "util/logging.hh"

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
        auto reply = service_.apply(pending.message);
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
            SolverService::Received received = service_.receive(
                buffers.data() + i * kMessageSize, metas[i].length,
                shard.reader.get(), shard.metricsPageCache);
            if (received.reply) {
                reply_bufs.push_back(*received.reply);
                replies.push_back({metas[i].from, reply_bufs.back().data(),
                                   reply_bufs.back().size()});
            } else if (received.pending) {
                enqueue(std::move(*received.pending), metas[i].from,
                        &shard.socket);
            }
            handleHist_->observe(secondsSince(start));
        }
        if (!replies.empty())
            sendReplies(shard.socket, replies.data(), replies.size());
        busyGauge_->add(secondsSince(busy_start));
    }
}

void
RequestPlane::enqueue(Message message, const net::Endpoint &from,
                      net::UdpSocket *via)
{
    // A message without a request id (a utilization update) owes
    // nobody a reply and only matters at the next iteration, so it
    // waits for the solver thread's next wake (iteration deadline,
    // timer poll, or a request behind it) instead of causing one,
    // unless it fills the group. A request has a client waiting.
    const bool owes_reply = requestId(message).has_value();
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
