#include "net/udp.hh"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace net {

namespace {

/** recvmmsg/sendmmsg vs portable fallback (see the header). */
std::atomic<bool> batchSyscalls{true};

} // namespace

void
setBatchSyscallsEnabled(bool enabled)
{
    batchSyscalls.store(enabled, std::memory_order_relaxed);
}

bool
batchSyscallsEnabled()
{
#ifdef __linux__
    return batchSyscalls.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

std::string
Endpoint::toString() const
{
    in_addr addr;
    addr.s_addr = address;
    char buf[INET_ADDRSTRLEN] = {};
    inet_ntop(AF_INET, &addr, buf, sizeof(buf));
    return format("%s:%u", buf, static_cast<unsigned>(port));
}

std::optional<uint32_t>
resolveHost(const std::string &host)
{
    in_addr parsed;
    if (inet_pton(AF_INET, host.c_str(), &parsed) == 1)
        return parsed.s_addr;

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_DGRAM;
    addrinfo *result = nullptr;
    if (getaddrinfo(host.c_str(), nullptr, &hints, &result) != 0)
        return std::nullopt;
    std::optional<uint32_t> out;
    for (addrinfo *it = result; it; it = it->ai_next) {
        if (it->ai_family == AF_INET) {
            out = reinterpret_cast<sockaddr_in *>(it->ai_addr)
                      ->sin_addr.s_addr;
            break;
        }
    }
    freeaddrinfo(result);
    return out;
}

UdpSocket::UdpSocket()
{
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0)
        fatal("socket(): ", std::strerror(errno));
}

UdpSocket::~UdpSocket()
{
    if (fd_ >= 0)
        ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket &&other) noexcept
    : fd_(other.fd_), receiveTimeoutMicros_(other.receiveTimeoutMicros_)
{
    other.fd_ = -1;
}

UdpSocket &
UdpSocket::operator=(UdpSocket &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = other.fd_;
        receiveTimeoutMicros_ = other.receiveTimeoutMicros_;
        other.fd_ = -1;
    }
    return *this;
}

void
UdpSocket::bind(uint16_t port, bool reuse_port)
{
    // A supervised restart must reclaim the crashed daemon's port.
    // SO_REUSEADDR alone is not enough on Linux UDP (both the holder
    // and the binder must set it, and the dying process's socket may
    // linger briefly), so also retry EADDRINUSE for a couple of
    // seconds before giving up.
    if (port != 0) {
        int one = 1;
        if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one)) < 0) {
            warn("setsockopt(SO_REUSEADDR): ", std::strerror(errno));
        }
    }
    if (reuse_port) {
#ifdef SO_REUSEPORT
        int one = 1;
        if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one,
                         sizeof(one)) < 0) {
            // Sharding degrades to one effective receiver; the daemon
            // still works, so warn rather than die.
            warn("setsockopt(SO_REUSEPORT): ", std::strerror(errno));
        }
#else
        warn("SO_REUSEPORT unsupported on this platform; "
             "sharded sockets will contend on one queue");
#endif
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);

    constexpr int kBindAttempts = 20;
    constexpr auto kBindRetryDelay = std::chrono::milliseconds(100);
    for (int attempt = 1;; ++attempt) {
        if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) == 0)
            return;
        if (errno != EADDRINUSE || port == 0 ||
            attempt >= kBindAttempts)
            fatal("bind(", port, "): ", std::strerror(errno));
        if (attempt == 1)
            inform("bind(", port, "): address in use, retrying for up "
                   "to ", kBindAttempts, " attempts");
        std::this_thread::sleep_for(kBindRetryDelay);
    }
}

uint16_t
UdpSocket::localPort() const
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len) < 0)
        return 0;
    return ntohs(addr.sin_port);
}

bool
UdpSocket::sendTo(const Endpoint &to, const void *data, size_t length)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = to.address;
    addr.sin_port = htons(to.port);
    ssize_t sent;
    do {
        sent = ::sendto(fd_, data, length, 0,
                        reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr));
    } while (sent < 0 && errno == EINTR);
    if (sent < 0) {
        warn("sendto(", to.toString(), "): ", std::strerror(errno));
        return false;
    }
    if (static_cast<size_t>(sent) != length) {
        warn("sendto(", to.toString(), "): short send, ", sent, " of ",
             length, " bytes");
        return false;
    }
    return true;
}

std::optional<size_t>
UdpSocket::recvFrom(void *buffer, size_t capacity, Endpoint *from,
                    double timeout_seconds)
{
    using Clock = std::chrono::steady_clock;
    const bool bounded = timeout_seconds >= 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               bounded ? timeout_seconds : 0.0));

    // A signal interrupting poll()/recvfrom() is not packet loss:
    // retry with whatever remains of the timeout budget.
    for (;;) {
        int timeout_ms = -1;
        if (bounded) {
            double remaining =
                std::chrono::duration<double>(deadline - Clock::now())
                    .count();
            timeout_ms = remaining <= 0.0
                             ? 0
                             : static_cast<int>(
                                   std::ceil(remaining * 1000.0));
        }
        pollfd pfd{fd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return std::nullopt;
        }
        if (ready == 0)
            return std::nullopt; // genuine timeout

        sockaddr_in addr{};
        socklen_t len = sizeof(addr);
        ssize_t got = ::recvfrom(fd_, buffer, capacity, 0,
                                 reinterpret_cast<sockaddr *>(&addr),
                                 &len);
        if (got < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK) {
                continue;
            }
            return std::nullopt;
        }
        if (from) {
            from->address = addr.sin_addr.s_addr;
            from->port = ntohs(addr.sin_port);
        }
        return static_cast<size_t>(got);
    }
}

bool
UdpSocket::setReceiveTimeout(double timeout_seconds)
{
    // Microseconds, rounded up so a positive wait never becomes 0 (no
    // bound); 1e9 s caps the conversion.
    int64_t micros = 0;
    if (timeout_seconds >= 0) {
        micros = std::max<int64_t>(
            1, static_cast<int64_t>(
                   std::ceil(std::min(timeout_seconds, 1e9) * 1e6)));
    }
    if (micros == receiveTimeoutMicros_)
        return true;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(micros / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(micros % 1000000);
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0)
        return false;
    receiveTimeoutMicros_ = micros;
    return true;
}

size_t
UdpSocket::recvMany(void *buffers, size_t capacity, RecvDatagram *out,
                    size_t count, double timeout_seconds)
{
    if (count == 0 || capacity == 0)
        return 0;
    if (count > kMaxBatch)
        count = kMaxBatch;
    uint8_t *base = static_cast<uint8_t *>(buffers);

#ifdef __linux__
    if (batchSyscallsEnabled()) {
        mmsghdr msgs[kMaxBatch];
        iovec iovs[kMaxBatch];
        sockaddr_in addrs[kMaxBatch];
        for (size_t i = 0; i < count; ++i) {
            std::memset(&msgs[i], 0, sizeof(msgs[i]));
            iovs[i].iov_base = base + i * capacity;
            iovs[i].iov_len = capacity;
            msgs[i].msg_hdr.msg_iov = &iovs[i];
            msgs[i].msg_hdr.msg_iovlen = 1;
            msgs[i].msg_hdr.msg_name = &addrs[i];
            msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
        }

        using Clock = std::chrono::steady_clock;
        const bool bounded = timeout_seconds >= 0;
        const Clock::time_point deadline =
            bounded ? Clock::now() +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(timeout_seconds))
                    : Clock::time_point{};
        double wait = bounded ? timeout_seconds : -1.0;
        for (;;) {
            // MSG_WAITFORONE: wait (under SO_RCVTIMEO) for the first
            // datagram only, then take what is already queued.
            int flags = MSG_WAITFORONE;
            if (bounded && wait <= 0.0)
                flags |= MSG_DONTWAIT;
            else if (!setReceiveTimeout(wait))
                return 0;
            int got = ::recvmmsg(fd_, msgs, static_cast<unsigned>(count),
                                 flags, nullptr);
            if (got > 0) {
                for (int i = 0; i < got; ++i) {
                    out[i].length = msgs[i].msg_len;
                    out[i].from.address = addrs[i].sin_addr.s_addr;
                    out[i].from.port = ntohs(addrs[i].sin_port);
                }
                return static_cast<size_t>(got);
            }
            const int error = errno;
            if (got == 0 || (error != EINTR && error != EAGAIN &&
                             error != EWOULDBLOCK))
                return 0;
            if (!bounded)
                continue; // EINTR: wait again
            // EAGAIN at the deadline is the timeout. EINTR (which an
            // SO_RCVTIMEO wait returns even under SA_RESTART) resumes
            // the wait for the rest of the budget; a spent budget gets
            // one last look without blocking, like recvFrom's final
            // poll.
            wait = std::chrono::duration<double>(deadline - Clock::now())
                       .count();
            if (error != EINTR && wait <= 0.0)
                return 0;
        }
    }
#endif

    // Portable fallback: block (bounded) for the first datagram only,
    // then a non-blocking single-datagram drain.
    auto first = recvFrom(base, capacity, &out[0].from, timeout_seconds);
    if (!first)
        return 0;
    out[0].length = *first;
    size_t received = 1;
    while (received < count) {
        auto more = recvFrom(base + received * capacity, capacity,
                             &out[received].from, 0.0);
        if (!more)
            break;
        out[received].length = *more;
        ++received;
    }
    return received;
}

size_t
UdpSocket::sendMany(const SendDatagram *items, size_t count,
                    size_t *first_error)
{
    size_t sent = 0;
    bool failed = false;
    size_t failed_at = count;

#ifdef __linux__
    if (batchSyscallsEnabled()) {
        size_t offset = 0;
        while (offset < count) {
            mmsghdr msgs[kMaxBatch];
            iovec iovs[kMaxBatch];
            sockaddr_in addrs[kMaxBatch];
            size_t want = std::min(count - offset, kMaxBatch);
            for (size_t i = 0; i < want; ++i) {
                const SendDatagram &item = items[offset + i];
                std::memset(&msgs[i], 0, sizeof(msgs[i]));
                std::memset(&addrs[i], 0, sizeof(addrs[i]));
                addrs[i].sin_family = AF_INET;
                addrs[i].sin_addr.s_addr = item.to.address;
                addrs[i].sin_port = htons(item.to.port);
                iovs[i].iov_base = const_cast<void *>(item.data);
                iovs[i].iov_len = item.length;
                msgs[i].msg_hdr.msg_iov = &iovs[i];
                msgs[i].msg_hdr.msg_iovlen = 1;
                msgs[i].msg_hdr.msg_name = &addrs[i];
                msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
            }
            int done = ::sendmmsg(fd_, msgs, static_cast<unsigned>(want), 0);
            if (done < 0) {
                if (errno == EINTR)
                    continue;
                // The datagram at `offset` is unsendable: record it,
                // skip it, and keep shipping the rest of the batch.
                if (!failed) {
                    failed = true;
                    failed_at = offset;
                }
                ++offset;
                continue;
            }
            for (int i = 0; i < done; ++i) {
                if (msgs[i].msg_len ==
                    static_cast<unsigned>(items[offset + i].length)) {
                    ++sent;
                } else if (!failed) {
                    failed = true;
                    failed_at = offset + i;
                }
            }
            offset += static_cast<size_t>(done);
            if (static_cast<size_t>(done) < want && offset < count) {
                // Partial batch without an errno: treat the next
                // datagram as the failure and move past it.
                if (!failed) {
                    failed = true;
                    failed_at = offset;
                }
                ++offset;
            }
        }
        if (first_error)
            *first_error = failed ? failed_at : count;
        return sent;
    }
#endif

    for (size_t i = 0; i < count; ++i) {
        const SendDatagram &item = items[i];
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = item.to.address;
        addr.sin_port = htons(item.to.port);
        ssize_t done;
        do {
            done = ::sendto(fd_, item.data, item.length, 0,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr));
        } while (done < 0 && errno == EINTR);
        if (done == static_cast<ssize_t>(item.length)) {
            ++sent;
        } else if (!failed) {
            failed = true;
            failed_at = i;
        }
    }
    if (first_error)
        *first_error = failed ? failed_at : count;
    return sent;
}

} // namespace net
} // namespace mercury
