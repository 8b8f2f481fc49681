/**
 * @file
 * Thin RAII wrapper around POSIX UDP sockets. Mercury's daemons speak
 * fixed-size datagrams (proto/messages.hh); this wrapper adds bounded
 * waits, address resolution and syscall batching (recvMany/sendMany
 * over recvmmsg/sendmmsg where the platform has them) and nothing
 * else.
 */

#ifndef MERCURY_NET_UDP_HH
#define MERCURY_NET_UDP_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace mercury {
namespace net {

/** A resolved IPv4 endpoint. */
struct Endpoint
{
    uint32_t address = 0; //!< network byte order
    uint16_t port = 0;    //!< host byte order

    std::string toString() const;
};

/** Resolve a host name or dotted quad; nullopt on failure. */
std::optional<uint32_t> resolveHost(const std::string &host);

/**
 * Process-wide switch between the multi-message syscalls
 * (recvmmsg/sendmmsg) and the portable one-datagram-per-syscall
 * fallback inside recvMany/sendMany. The semantics are identical
 * either way; the switch exists so the RPC bench can price the
 * batching and so the tests exercise the fallback on any platform.
 * Non-Linux builds always use the fallback.
 */
void setBatchSyscallsEnabled(bool enabled);
bool batchSyscallsEnabled();

/**
 * Move-only UDP socket.
 */
class UdpSocket
{
  public:
    /** Creates the socket; fatal when the OS refuses. */
    UdpSocket();
    ~UdpSocket();

    UdpSocket(UdpSocket &&other) noexcept;
    UdpSocket &operator=(UdpSocket &&other) noexcept;
    UdpSocket(const UdpSocket &) = delete;
    UdpSocket &operator=(const UdpSocket &) = delete;

    /**
     * Bind to a local port (0 = ephemeral); fatal on failure. With
     * @p reuse_port, SO_REUSEPORT is set before binding so several
     * sockets (one per serve worker) can share one port and let the
     * kernel spray inbound datagrams across them.
     */
    void bind(uint16_t port, bool reuse_port = false);

    /** Local port after bind (or after the first send). */
    uint16_t localPort() const;

    /** Send one datagram to an endpoint. Returns false on error. */
    bool sendTo(const Endpoint &to, const void *data, size_t length);

    /** @name Syscall-batched I/O
     * One recvMany/sendMany call moves up to kMaxBatch datagrams per
     * syscall (recvmmsg/sendmmsg on Linux; a drain loop of
     * non-blocking single-datagram syscalls elsewhere). The serve
     * workers and monitord's update batcher live on these.
     */
    /// @{

    /** Most datagrams one batched call will touch. */
    static constexpr size_t kMaxBatch = 32;

    /** One received datagram's metadata (payload lands in the caller's
     *  buffer array). */
    struct RecvDatagram
    {
        size_t length = 0;
        Endpoint from;
    };

    /** One datagram to send. */
    struct SendDatagram
    {
        Endpoint to;
        const void *data = nullptr;
        size_t length = 0;
    };

    /**
     * Wait up to @p timeout_seconds (< 0 = forever) for traffic, then
     * drain up to @p count datagrams (capped at kMaxBatch) without
     * blocking again. Datagram i lands at @p buffers + i * @p capacity
     * (truncated to @p capacity bytes) with its size and sender in
     * @p out[i]. Returns the number received: 0 on timeout, and never
     * blocks once the first datagram has been read.
     *
     * With batching on (Linux), a wake-up costs one syscall:
     * recvmmsg(MSG_WAITFORONE), which waits for the first datagram
     * and takes the rest of the batch from what is already queued. A
     * positive timeout is the socket's SO_RCVTIMEO, set (one more
     * syscall) only when it differs from the value the last call
     * left; 0 adds MSG_DONTWAIT and leaves SO_RCVTIMEO alone; a
     * negative timeout clears it and waits without bound. The
     * fallback polls, then drains with single-datagram receives.
     *
     * An interrupted wait never looks like a timeout: EINTR, which an
     * SO_RCVTIMEO wait returns even under SA_RESTART, resumes the wait
     * for the rest of the budget, and once the budget is spent one
     * last non-blocking receive decides, like recvFrom's final poll.
     * A wait that ends without a datagram before the deadline resumes
     * too.
     */
    size_t recvMany(void *buffers, size_t capacity, RecvDatagram *out,
                    size_t count, double timeout_seconds);

    /**
     * Send @p count datagrams (no cap — the implementation loops in
     * kMaxBatch slices). Returns how many were fully sent; with
     * @p first_error non-null, the index of the first failed datagram
     * lands there (count when all went out). Unlike sendTo, per-
     * datagram failures are NOT logged here — callers own the
     * once-per-peer policy (see the serve workers).
     */
    size_t sendMany(const SendDatagram *items, size_t count,
                    size_t *first_error = nullptr);

    /// @}

    /**
     * Wait up to @p timeout_seconds for a datagram. Returns the byte
     * count, or nullopt on timeout/error. @p from (optional) receives
     * the sender's endpoint. Signal interruptions (EINTR) are retried
     * with the remaining timeout — a signal never looks like loss.
     */
    std::optional<size_t> recvFrom(void *buffer, size_t capacity,
                                   Endpoint *from, double timeout_seconds);

    /** Raw descriptor (for poll integration in the daemons). */
    int fd() const { return fd_; }

  private:
    /** Make SO_RCVTIMEO @p timeout_seconds (< 0: no bound) unless it
     *  already is; false when the socket refuses. */
    bool setReceiveTimeout(double timeout_seconds);

    int fd_ = -1;
    int64_t receiveTimeoutMicros_ = 0; //!< SO_RCVTIMEO as set; 0 = none
};

} // namespace net
} // namespace mercury

#endif // MERCURY_NET_UDP_HH
