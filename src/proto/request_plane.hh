/**
 * @file
 * Sharded, syscall-batched UDP request plane for the solver daemon:
 * the transport around SolverService, which decides what each
 * datagram does.
 *
 * The serial daemon interleaved one socket, the solver and every timer
 * on a single thread; at high monitord fan-in it spent most of its
 * budget in per-datagram syscalls. The request plane splits that into
 * N serve workers, each with its own SO_REUSEPORT socket on the shared
 * port, draining up to UdpSocket::kMaxBatch datagrams per recvmmsg and
 * batch-sending replies with sendmmsg. A worker hands each datagram to
 * SolverService::receive() with its own telemetry snapshot reader and
 * metrics page cache, then does one of two things:
 *
 *  - sends the answer receive() gave (reads the snapshot serves,
 *    metrics pages, `fiddle stats`), so reads scale with workers and
 *    never stall an iteration;
 *  - or enqueues the message receive() handed back on an MPSC queue
 *    the solver thread drains through SolverService::apply() at
 *    iteration boundaries, preserving the serial daemon's
 *    arrival-order semantics.
 *
 * Only queued messages that owe a reply wake the solver thread.
 * Utilization updates are group-committed: they wait for its next wake
 * for any other reason and then apply, WAL-log and replicate as one
 * batch, just before the next iteration. A group that reaches
 * kGroupCommitMax updates wakes it too. Their sequence numbers were
 * noted in receive(), so loss accounting stays exact however long an
 * update waits in the queue.
 *
 * SO_REUSEPORT hashes on the 4-tuple: one sender's datagrams always
 * land on one shard, so per-sender FIFO survives sharding (replies to
 * different requests may interleave across shards; the protocol is
 * request-id matched, see docs/protocol.md).
 */

#ifndef MERCURY_PROTO_REQUEST_PLANE_HH
#define MERCURY_PROTO_REQUEST_PLANE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "metrics/metrics.hh"
#include "net/udp.hh"
#include "proto/messages.hh"

namespace mercury {

namespace telemetry {
class Reader;
} // namespace telemetry

namespace proto {

class SolverService;

/**
 * N serve workers in front of one SolverService.
 *
 * Sockets are bound at construction (so port() is valid immediately);
 * worker threads run between start() and stopAndJoin(). The thread
 * that steps the solver — and only that thread — calls waitForWork()
 * and drainPending().
 */
class RequestPlane
{
  public:
    /** Queued updates that wake the solver thread on their own. This
     *  bounds one drain's WAL write and replication burst, which must
     *  fit a standby's socket buffer: Linux's default 208 KiB holds
     *  some 90 full replication datagrams, about 2000 update records. */
    static constexpr size_t kGroupCommitMax = 512;

    struct Config
    {
        /** UDP port to share across shards; 0 picks an ephemeral port
         *  (the remaining shards then join the chosen one). */
        uint16_t port = 0;

        /** Serve workers / SO_REUSEPORT shards; clamped to >= 1. */
        unsigned serveThreads = 1;

        /** Telemetry segment each worker opens a read-only snapshot
         *  Reader on; empty = no snapshot, reads fall through to the
         *  solver thread via the queue. */
        std::string shmName;

        /** Registry for the plane's instruments (required). */
        metrics::Registry *registry = nullptr;
    };

    RequestPlane(SolverService &service, Config config);
    ~RequestPlane();

    RequestPlane(const RequestPlane &) = delete;
    RequestPlane &operator=(const RequestPlane &) = delete;

    /** The shared bound port (valid after construction). */
    uint16_t port() const;

    /** Number of shards actually running. */
    unsigned workers() const { return unsigned(shards_.size()); }

    /** Spawn the serve workers (idempotent). */
    void start();

    /** Stop and join the workers (idempotent; ~RequestPlane calls it).
     *  Messages already queued stay queued — the caller drains them. */
    void stopAndJoin();

    /** Wake a blocked waitForWork() without enqueueing anything
     *  (daemon stop path). */
    void wake();

    /** @name Solver-thread API */
    /// @{

    /**
     * Block until a queued message owes a reply, kGroupCommitMax
     * messages are queued, wake() is called, or @p deadline passes.
     * Fewer queued utilization updates alone do not end the wait.
     * Returns true when work is pending.
     */
    bool waitForWork(std::chrono::steady_clock::time_point deadline);

    /**
     * Apply every queued message through SolverService::apply (in
     * per-shard arrival order) and send the replies back through
     * the shard socket each request arrived on. Returns the number of
     * messages applied. Solver-thread only.
     */
    size_t drainPending();

    /**
     * Observe every message drainPending() is about to apply, before
     * it reaches the service. This is the WAL's append point: the
     * drain is the solver's single mutation-serialization boundary, so
     * logging here (in drain order, tagged with the current iteration)
     * is what makes replay and replication bitwise-faithful. Set from
     * the solver thread before start(); invoked on the solver thread.
     */
    void
    setMutationObserver(std::function<void(const Message &)> observer)
    {
        mutationObserver_ = std::move(observer);
    }

    /// @}

    /** Mutations currently waiting in the queue (metrics, tests). */
    uint64_t queueDepth() const
    {
        return queueDepth_.load(std::memory_order_relaxed);
    }

    /** Reply datagrams that failed to send (tests). */
    uint64_t replySendErrors() const;

  private:
    /** One shard: a reuseport socket plus its worker thread and the
     *  worker-local state that keeps the hot path allocation-free. */
    struct Shard
    {
        net::UdpSocket socket;
        std::thread thread;
        /** Lazily-connected snapshot reader; null when shmName empty. */
        std::unique_ptr<telemetry::Reader> reader;
        /** Per-worker MetricsRequest page cache (one client's pages
         *  all land on one shard under reuseport). */
        std::string metricsPageCache;
    };

    /** One queued mutation, tagged with where to send the reply. */
    struct Pending
    {
        Message message;
        net::Endpoint from;
        net::UdpSocket *via = nullptr;
    };

    void workerLoop(Shard &shard);

    void enqueue(Message message, const net::Endpoint &from,
                 net::UdpSocket *via);

    /** Batch-send with once-per-peer failure logging and the
     *  net_reply_send_errors_total counter. */
    void sendReplies(net::UdpSocket &via,
                     const net::UdpSocket::SendDatagram *items,
                     size_t count);

    void noteSendFailure(const net::Endpoint &to);

    SolverService &service_;
    Config config_;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> stop_{false};
    bool started_ = false;

    /** MPSC mutation queue: workers push, the solver thread swaps the
     *  whole vector out under the lock and applies it lock-free. */
    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::vector<Pending> queue_;
    /** Set by wake(), by queueing a message that owes a reply, and by
     *  a full group. */
    bool wakeRequested_ = false;
    /** queue_.size(), changed under queueMutex_, read lock-free. */
    std::atomic<uint64_t> queueDepth_{0};

    /** WAL append hook; called on the solver thread per drained
     *  message, before the service applies it. */
    std::function<void(const Message &)> mutationObserver_;

    /** Peers already warned about failed replies (log once, count
     *  always). Shared across workers; send failures are cold. */
    std::mutex sendWarnMutex_;
    std::unordered_set<std::string> warnedPeers_;

    metrics::Histogram *batchHist_ = nullptr;  //!< net_batch_size
    metrics::Histogram *handleHist_ = nullptr; //!< net_request_handle_seconds
    metrics::Gauge *busyGauge_ = nullptr;      //!< net_worker_busy_seconds
    metrics::Counter *sendErrors_ = nullptr;   //!< net_reply_send_errors_total
    metrics::CallbackGuard metricsGuard_;
};

} // namespace proto
} // namespace mercury

#endif // MERCURY_PROTO_REQUEST_PLANE_HH
