/**
 * @file
 * Tests of the sharded, syscall-batched UDP request plane: the
 * recvMany/sendMany socket primitives (batched and fallback paths),
 * monitord's update batcher, group commit (queued utilization updates
 * wake the solver thread only as a full group, yet apply before any
 * request queued behind them), reads a plane serves from the telemetry
 * segment (valid and hostile, each answer byte-identical to the
 * solver's), and a multi-client hammer that drives a sharded daemon
 * with concurrent mutating + read RPCs and checks that loss accounting
 * stays exact and the solver trajectory is bitwise identical to the
 * single-threaded daemon's.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hh"
#include "core/spec.hh"
#include "metrics/metrics.hh"
#include "monitor/monitord.hh"
#include "net/udp.hh"
#include "proto/messages.hh"
#include "proto/request_plane.hh"
#include "proto/solver_daemon.hh"
#include "proto/solver_service.hh"
#include "telemetry/writer.hh"

namespace mercury {
namespace {

/** Restore the process-global batching switch on scope exit. */
struct BatchSwitchGuard
{
    explicit BatchSwitchGuard(bool enabled)
    {
        net::setBatchSyscallsEnabled(enabled);
    }
    ~BatchSwitchGuard() { net::setBatchSyscallsEnabled(true); }
};

void
exerciseRoundTrip(size_t count)
{
    net::UdpSocket receiver;
    receiver.bind(0);
    net::UdpSocket sender;
    net::Endpoint to{*net::resolveHost("127.0.0.1"),
                     receiver.localPort()};

    std::vector<std::string> payloads;
    std::vector<net::UdpSocket::SendDatagram> items;
    for (size_t i = 0; i < count; ++i)
        payloads.push_back("datagram-" + std::to_string(i));
    for (size_t i = 0; i < count; ++i) {
        net::UdpSocket::SendDatagram item;
        item.to = to;
        item.data = payloads[i].data();
        item.length = payloads[i].size();
        items.push_back(item);
    }
    size_t first_error = 99;
    ASSERT_EQ(sender.sendMany(items.data(), items.size(), &first_error),
              count);
    EXPECT_EQ(first_error, count);

    // recvMany drains in bounded batches; loop until everything came
    // through (loopback keeps ordering, but don't depend on it).
    std::vector<std::string> got;
    uint8_t buffers[net::UdpSocket::kMaxBatch][256];
    net::UdpSocket::RecvDatagram metas[net::UdpSocket::kMaxBatch];
    while (got.size() < count) {
        size_t n = receiver.recvMany(&buffers[0][0], sizeof(buffers[0]),
                                     metas, net::UdpSocket::kMaxBatch,
                                     2.0);
        ASSERT_GT(n, 0u) << "timed out with " << got.size() << "/"
                         << count;
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(metas[i].from.port, sender.localPort());
            got.emplace_back(reinterpret_cast<char *>(buffers[i]),
                             metas[i].length);
        }
    }
    std::sort(got.begin(), got.end());
    std::sort(payloads.begin(), payloads.end());
    EXPECT_EQ(got, payloads);
}

TEST(BatchedSockets, RoundTripBatched)
{
    BatchSwitchGuard batching(true);
    exerciseRoundTrip(net::UdpSocket::kMaxBatch);
    exerciseRoundTrip(3);
}

TEST(BatchedSockets, RoundTripFallback)
{
    BatchSwitchGuard fallback(false);
    exerciseRoundTrip(net::UdpSocket::kMaxBatch);
    exerciseRoundTrip(1);
}

TEST(BatchedSockets, SendManyOverlongBatchLoops)
{
    // More than kMaxBatch datagrams in one call: sendMany slices.
    BatchSwitchGuard batching(true);
    exerciseRoundTrip(net::UdpSocket::kMaxBatch + 7);
}

TEST(BatchedSockets, SendManyReportsFirstFailure)
{
    net::UdpSocket receiver;
    receiver.bind(0);
    net::UdpSocket sender;
    net::Endpoint good{*net::resolveHost("127.0.0.1"),
                       receiver.localPort()};
    net::Endpoint bad{*net::resolveHost("127.0.0.1"), 0}; // EINVAL

    const char payload[] = "x";
    net::UdpSocket::SendDatagram items[3];
    for (auto &item : items) {
        item.to = good;
        item.data = payload;
        item.length = 1;
    }
    items[1].to = bad;

    size_t first_error = 99;
    size_t sent = sender.sendMany(items, 3, &first_error);
    EXPECT_EQ(sent, 2u);
    EXPECT_EQ(first_error, 1u);
}

TEST(UpdateBatcher, BatchesATickIntoOneFlush)
{
    net::UdpSocket receiver;
    receiver.bind(0);
    auto socket = std::make_shared<net::UdpSocket>();
    net::Endpoint to{*net::resolveHost("127.0.0.1"),
                     receiver.localPort()};

    monitor::UpdateBatcher batcher(socket, to);
    monitor::Monitord::Sink sink = batcher.sink();
    for (int i = 0; i < 5; ++i) {
        proto::UtilizationUpdate update;
        update.machine = "m1";
        update.component = "cpu";
        update.utilization = 0.1 * i;
        update.sequence = uint64_t(i);
        sink(update);
    }
    EXPECT_EQ(batcher.queued(), 5u);
    EXPECT_EQ(batcher.datagramsSent(), 0u);
    batcher.flush();
    EXPECT_EQ(batcher.queued(), 0u);
    EXPECT_EQ(batcher.datagramsSent(), 5u);
    EXPECT_EQ(batcher.sendErrors(), 0u);

    uint8_t buffers[net::UdpSocket::kMaxBatch][proto::kMessageSize];
    net::UdpSocket::RecvDatagram metas[net::UdpSocket::kMaxBatch];
    size_t got = 0;
    while (got < 5) {
        size_t n = receiver.recvMany(&buffers[0][0], proto::kMessageSize,
                                     metas, net::UdpSocket::kMaxBatch,
                                     2.0);
        ASSERT_GT(n, 0u);
        for (size_t i = 0; i < n; ++i) {
            auto message = proto::decode(buffers[i], metas[i].length);
            ASSERT_TRUE(message.has_value());
            auto *update =
                std::get_if<proto::UtilizationUpdate>(&*message);
            ASSERT_NE(update, nullptr);
            EXPECT_EQ(update->machine, "m1");
            ++got;
        }
    }
}

/** Send @p count sequenced cpu updates for @p machine. */
void
sendUpdates(net::UdpSocket &socket, const net::Endpoint &to,
            const std::string &machine, uint64_t count)
{
    for (uint64_t seq = 0; seq < count; ++seq) {
        proto::UtilizationUpdate update;
        update.machine = machine;
        update.component = "cpu";
        update.utilization = 0.5 + 0.01 * double(seq);
        update.sequence = seq;
        proto::Packet packet = proto::encode(update);
        ASSERT_TRUE(socket.sendTo(to, packet.data(), packet.size()));
    }
}

void
sendFiddle(net::UdpSocket &socket, const net::Endpoint &to,
           uint32_t request_id, const std::string &line)
{
    proto::FiddleRequest request;
    request.requestId = request_id;
    request.commandLine = line;
    proto::Packet packet = proto::encode(request);
    ASSERT_TRUE(socket.sendTo(to, packet.data(), packet.size()));
}

/** The fiddle reply to @p request_id, or nullopt on timeout. */
std::optional<proto::FiddleReply>
awaitFiddleReply(net::UdpSocket &socket, uint32_t request_id,
                 double timeout_seconds)
{
    uint8_t buffer[proto::kMessageSize];
    while (auto got = socket.recvFrom(buffer, sizeof(buffer), nullptr,
                                      timeout_seconds)) {
        auto message = proto::decode(buffer, *got);
        if (!message)
            continue;
        auto *reply = std::get_if<proto::FiddleReply>(&*message);
        if (reply && reply->requestId == request_id)
            return *reply;
    }
    return std::nullopt;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** recvMany's wait contract on the path the batching switch picks. */
void
exerciseWaits()
{
    net::UdpSocket receiver;
    receiver.bind(0);
    uint8_t buffers[net::UdpSocket::kMaxBatch][64];
    net::UdpSocket::RecvDatagram metas[net::UdpSocket::kMaxBatch];
    double elapsed = 0.0;
    auto wait = [&](double timeout_seconds) {
        auto start = std::chrono::steady_clock::now();
        size_t n = receiver.recvMany(&buffers[0][0], sizeof(buffers[0]),
                                     metas, net::UdpSocket::kMaxBatch,
                                     timeout_seconds);
        elapsed = secondsSince(start);
        return n;
    };

    // An empty socket: 0 at once, then 0 after the whole 50 ms, then
    // 0 at once again (the 50 ms left on the socket does not apply).
    EXPECT_EQ(wait(0.0), 0u);
    EXPECT_LT(elapsed, 0.04);
    EXPECT_EQ(wait(0.05), 0u);
    EXPECT_GE(elapsed, 0.05);
    EXPECT_LT(elapsed, 1.0);
    EXPECT_EQ(wait(0.0), 0u);
    EXPECT_LT(elapsed, 0.04);

    // A datagram already queued comes back without a wait.
    net::UdpSocket sender;
    net::Endpoint to{*net::resolveHost("127.0.0.1"),
                     receiver.localPort()};
    const char payload[] = "queued";
    auto send_and_settle = [&] {
        ASSERT_TRUE(sender.sendTo(to, payload, sizeof(payload)));
        pollfd pfd{receiver.fd(), POLLIN, 0};
        ASSERT_EQ(::poll(&pfd, 1, 1000), 1);
    };
    send_and_settle();
    EXPECT_EQ(wait(0.0), 1u);
    EXPECT_EQ(metas[0].length, sizeof(payload));
    EXPECT_EQ(metas[0].from.port, sender.localPort());

    // An unbounded wait takes a queued datagram too, and a bounded
    // wait after it still times out.
    send_and_settle();
    EXPECT_EQ(wait(-1.0), 1u);
    EXPECT_EQ(wait(0.05), 0u);
    EXPECT_GE(elapsed, 0.05);
}

TEST(BatchedSockets, WaitContractBatched)
{
    BatchSwitchGuard batching(true);
    exerciseWaits();
}

TEST(BatchedSockets, WaitContractFallback)
{
    BatchSwitchGuard fallback(false);
    exerciseWaits();
}

TEST(GroupCommit, QueuedUpdatesAloneDoNotEndTheSolverWait)
{
    constexpr uint64_t kUpdates = 20;
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    proto::SolverService service(solver);
    metrics::Registry registry;
    proto::RequestPlane::Config config;
    config.registry = &registry;
    proto::RequestPlane plane(service, config);
    plane.start();

    net::UdpSocket client;
    net::Endpoint to{*net::resolveHost("127.0.0.1"), plane.port()};
    sendUpdates(client, to, "m1", kUpdates);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (plane.queueDepth() < kUpdates &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(plane.queueDepth(), kUpdates);

    // This test thread plays the solver thread. With only updates
    // queued, the wait runs to its deadline, then reports the work.
    auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(plane.waitForWork(start + std::chrono::milliseconds(300)));
    EXPECT_GE(secondsSince(start), 0.3);
    EXPECT_EQ(service.updatesApplied(), 0u);

    // A mutating fiddle line owes a reply: it ends a long wait early.
    std::thread sender([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        sendFiddle(client, to, 7, "m1 utilization cpu 0.2");
    });
    start = std::chrono::steady_clock::now();
    EXPECT_TRUE(plane.waitForWork(start + std::chrono::seconds(5)));
    double waited = secondsSince(start);
    sender.join();
    EXPECT_LT(waited, 2.5);

    // One drain applies everything in arrival order and answers the
    // request; the depth gauge returns to exactly zero.
    EXPECT_EQ(plane.drainPending(), kUpdates + 1);
    EXPECT_EQ(plane.queueDepth(), 0u);
    EXPECT_EQ(service.updatesApplied(), kUpdates);
    auto reply = awaitFiddleReply(client, 7, 2.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, proto::Status::Ok) << reply->message;
    EXPECT_DOUBLE_EQ(solver.machine("m1").utilization("cpu"), 0.2);
    plane.stopAndJoin();
}

TEST(GroupCommit, QueuedUpdatesApplyBeforeTheRequestBehindThem)
{
    constexpr uint64_t kUpdates = 40;
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    metrics::Registry registry;
    proto::SolverDaemon::Config config;
    config.port = 0;
    config.iterationSeconds = 1.0;
    config.statsLogSeconds = 0.0;
    config.registry = &registry;
    proto::SolverDaemon daemon(solver, config);
    std::thread server([&] { daemon.run(); });

    net::UdpSocket client;
    net::Endpoint to{*net::resolveHost("127.0.0.1"), daemon.port()};
    sendUpdates(client, to, "m1", kUpdates);
    sendFiddle(client, to, 9, "m1 utilization cpu 0.2");
    auto reply = awaitFiddleReply(client, 9, 5.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, proto::Status::Ok) << reply->message;
    // The reply leaves only after every update queued ahead of the
    // request has applied.
    EXPECT_EQ(daemon.service().updatesApplied(), kUpdates);

    daemon.stop();
    server.join();
    // Read after the join (the solver thread owns the solver while it
    // runs): the fiddle line, queued last, applied last.
    EXPECT_DOUBLE_EQ(solver.machine("m1").utilization("cpu"), 0.2);
}

/** A full group ends the wait on its own, which bounds what one drain
 *  writes to the WAL and ships to a standby. */
TEST(GroupCommit, AFullGroupEndsTheSolverWait)
{
    constexpr uint64_t kGroup = proto::RequestPlane::kGroupCommitMax;
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    proto::SolverService service(solver);
    metrics::Registry registry;
    proto::RequestPlane::Config config;
    config.registry = &registry;
    proto::RequestPlane plane(service, config);
    plane.start();

    net::UdpSocket client;
    net::Endpoint to{*net::resolveHost("127.0.0.1"), plane.port()};
    // A chunk at a time, so the worker's socket buffer never overflows.
    for (uint64_t queued = 0; queued < kGroup - 1;) {
        uint64_t chunk = std::min<uint64_t>(64, kGroup - 1 - queued);
        sendUpdates(client, to, "m1", chunk);
        queued += chunk;
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (plane.queueDepth() < queued &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(plane.queueDepth(), queued);
    }

    // One short of a full group: the wait runs to its deadline.
    auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(plane.waitForWork(start + std::chrono::milliseconds(300)));
    EXPECT_GE(secondsSince(start), 0.3);

    // The update that fills the group ends a long wait early.
    std::thread sender([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        sendUpdates(client, to, "m1", 1);
    });
    start = std::chrono::steady_clock::now();
    EXPECT_TRUE(plane.waitForWork(start + std::chrono::seconds(5)));
    double waited = secondsSince(start);
    sender.join();
    EXPECT_LT(waited, 2.5);

    EXPECT_EQ(plane.drainPending(), kGroup);
    EXPECT_EQ(service.updatesApplied(), kGroup);
    plane.stopAndJoin();
}

proto::Packet
sensorRequest(uint32_t id, const std::string &machine,
              const std::string &component)
{
    proto::SensorRequest request;
    request.requestId = id;
    request.machine = machine;
    request.component = component;
    return proto::encode(request);
}

proto::Packet
multiReadRequest(uint32_t id, const std::string &machine,
                 const std::vector<std::string> &components)
{
    proto::MultiReadRequest request;
    request.requestId = id;
    request.machine = machine;
    request.components = components;
    return proto::encode(request);
}

proto::Packet
metricsRequest(uint32_t id, uint32_t offset)
{
    proto::MetricsRequest request;
    request.requestId = id;
    request.offset = offset;
    return proto::encode(request);
}

/** Wire offsets of a request's first and second name fields (after
 *  the 8-byte header and the 4-byte request id). */
constexpr size_t kFirstName = 12;
constexpr size_t kSecondName = 44;

/** @p packet with the 32-byte name field at @p offset filled to its
 *  full width, so it carries no terminating NUL. */
proto::Packet
fullWidthName(proto::Packet packet, size_t offset)
{
    std::memset(packet.data() + offset, 'w', 32);
    return packet;
}

/** @p packet with the 32-byte name field at @p offset holding
 *  @p name, exactly 32 characters and so unterminated (the encoder
 *  refuses such names; a peer may still send them). */
proto::Packet
withName(proto::Packet packet, size_t offset, const std::string &name)
{
    EXPECT_EQ(name.size(), 32u);
    std::memcpy(packet.data() + offset, name.data(), 32);
    return packet;
}

/** Names exactly 32 characters long, which the telemetry writer
 *  cannot publish: a table1 server's, and an extra node's of the
 *  "wide_nodes" server, reached directly or through the alias "wd". */
const std::string kWideMachine = "rack-07.chassis-3.blade-12.node4";
const std::string kWideNode = "inlet_plenum_upper_left_sensor_2";

core::MachineSpec
wideNodeServer()
{
    core::MachineSpec spec = core::table1Server("wide_nodes");
    core::NodeSpec sensor = *spec.findNode("disk_shell");
    sensor.name = kWideNode;
    sensor.hasPower = false;
    spec.nodes.push_back(sensor);
    spec.heatEdges.push_back({kWideNode, "disk_shell", 0.5});
    return spec;
}

/**
 * A real request plane with the telemetry segment on, beside a
 * shm-less reference service over the same solver. The plane's worker
 * answers reads from the snapshot; the reference answers the same
 * datagram through handlePacket from the solver. This thread plays the
 * solver thread: it drains the plane only where a test says so.
 */
class ShmPlane : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        solver.addMachine(core::table1Server("m1"));
        solver.addMachine(core::table1Server("m2"));
        solver.addMachine(core::table1Server(kWideMachine));
        solver.addMachine(wideNodeServer());
        solver.addAlias("wd", kWideNode);
        solver.setUtilization("m1", "cpu", 0.8);
        solver.run(20.0);
        writer = std::make_unique<telemetry::Writer>(shmName, solver, 1.0);
        ASSERT_TRUE(writer->valid());
        service.setMetricsRegistry(&registry);
        proto::RequestPlane::Config config;
        config.shmName = shmName;
        config.registry = &registry;
        plane = std::make_unique<proto::RequestPlane>(service, config);
        plane->start();
        to = net::Endpoint{*net::resolveHost("127.0.0.1"), plane->port()};
    }

    /** Send @p length bytes of @p datagram to the plane. The heartbeat
     *  is refreshed first, so a slow (sanitizer) run never finds the
     *  snapshot stale. */
    void
    send(const proto::Packet &datagram, size_t length = proto::kMessageSize)
    {
        writer->refreshHeartbeat();
        ASSERT_TRUE(client.sendTo(to, datagram.data(), length));
    }

    /** The next datagram back from the plane, or nullopt. */
    std::optional<proto::Packet>
    nextReply(double timeout_seconds = 5.0)
    {
        proto::Packet packet{};
        auto got = client.recvFrom(packet.data(), packet.size(), nullptr,
                                   timeout_seconds);
        if (!got || *got != packet.size())
            return std::nullopt;
        return packet;
    }

    /** The plane answers @p request without a drain, with exactly the
     *  bytes the reference's handlePacket gives, and both count it the
     *  same way. */
    void
    expectSameAnswer(const proto::Packet &request, const std::string &what)
    {
        send(request);
        auto reply = nextReply();
        auto expected =
            reference.handlePacket(request.data(), request.size());
        ASSERT_TRUE(reply.has_value()) << what;
        ASSERT_TRUE(expected.has_value()) << what;
        EXPECT_EQ(*reply, *expected) << what;
        expectSameCounters(what);
    }

    /** The plane drops @p length bytes of @p datagram: the read sent
     *  right behind it is the next reply back, and the drop raised
     *  net_undecodable_total by one on both services. */
    void
    expectDropped(const proto::Packet &datagram, size_t length,
                  const std::string &what)
    {
        uint64_t before = service.undecodable();
        send(datagram, length);
        EXPECT_FALSE(
            reference.handlePacket(datagram.data(), length).has_value())
            << what;
        expectSameAnswer(sensorRequest(900, "m1", "cpu"),
                         what + ", then a read");
        EXPECT_EQ(service.undecodable(), before + 1) << what;
    }

    /** The plane queues @p request, and the drain answers it with
     *  exactly the bytes the reference's handlePacket gives. A read
     *  the snapshot answers is sent behind it: once that reply is
     *  back, the worker has dealt with the request. */
    void
    expectSolverAnswer(const proto::Packet &request, const std::string &what)
    {
        send(request);
        auto expected =
            reference.handlePacket(request.data(), request.size());
        proto::Packet behind = sensorRequest(901, "m1", "cpu");
        send(behind);
        auto inline_reply = nextReply();
        auto inline_expected =
            reference.handlePacket(behind.data(), behind.size());
        ASSERT_TRUE(inline_reply.has_value()) << what;
        ASSERT_TRUE(inline_expected.has_value()) << what;
        EXPECT_EQ(*inline_reply, *inline_expected) << what;
        EXPECT_EQ(plane->queueDepth(), 1u) << what;
        EXPECT_EQ(plane->drainPending(), 1u) << what;
        auto reply = nextReply();
        ASSERT_TRUE(reply.has_value()) << what;
        ASSERT_TRUE(expected.has_value()) << what;
        EXPECT_EQ(*reply, *expected) << what;
        expectSameCounters(what);
    }

    void
    expectSameCounters(const std::string &what)
    {
        EXPECT_EQ(service.sensorReads(), reference.sensorReads()) << what;
        EXPECT_EQ(service.multiReads(), reference.multiReads()) << what;
        EXPECT_EQ(service.undecodable(), reference.undecodable()) << what;
        for (uint8_t type = 1; type <= 9; ++type) {
            auto message_type = static_cast<proto::MessageType>(type);
            EXPECT_EQ(service.received(message_type),
                      reference.received(message_type))
                << what << ", message type " << int(type);
        }
    }

    std::string shmName =
        "/mercury.rpc_plane_reads." + std::to_string(::getpid());
    core::Solver solver;
    metrics::Registry registry;
    proto::SolverService service{solver};
    proto::SolverService reference{solver};
    std::unique_ptr<telemetry::Writer> writer;
    std::unique_ptr<proto::RequestPlane> plane;
    net::UdpSocket client;
    net::Endpoint to;
};

TEST_F(ShmPlane, InlineAnswersArriveAndQueuedOnesWaitForTheDrain)
{
    // A fiddle line other than `stats` is queued for the solver thread;
    // the read sent behind it is answered first, from the snapshot.
    proto::FiddleRequest fiddle;
    fiddle.requestId = 1;
    fiddle.commandLine = "replica";
    proto::Packet queued = proto::encode(fiddle);
    send(queued);
    auto expected_queued =
        reference.handlePacket(queued.data(), queued.size());
    expectSameAnswer(sensorRequest(2, "m1", "cpu"),
                     "read behind a queued line");

    fiddle.requestId = 3;
    fiddle.commandLine = "stats";
    expectSameAnswer(proto::encode(fiddle), "fiddle stats");
    EXPECT_EQ(plane->queueDepth(), 1u);

    EXPECT_EQ(plane->drainPending(), 1u);
    auto reply = nextReply();
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(expected_queued.has_value());
    EXPECT_EQ(*reply, *expected_queued);
    expectSameCounters("after the drain");
}

TEST_F(ShmPlane, ReadsMatchTheSolverPathByteForByte)
{
    uint32_t id = 10;
    expectSameAnswer(sensorRequest(id++, "m1", "cpu"), "known");
    expectSameAnswer(sensorRequest(id++, "m1", "disk"), "alias");
    expectSameAnswer(sensorRequest(id++, "m2", "inlet"), "second machine");
    expectSameAnswer(sensorRequest(id++, "m3", "cpu"), "unknown machine");
    expectSameAnswer(sensorRequest(id++, "m1", "nope"),
                     "unknown component");
    expectSameAnswer(
        fullWidthName(sensorRequest(id++, "m1", "cpu"), kFirstName),
        "full-width machine");
    expectSameAnswer(
        fullWidthName(sensorRequest(id++, "m1", "cpu"), kSecondName),
        "full-width component");

    expectSameAnswer(multiReadRequest(id++, "m1", {"cpu", "disk", "inlet"}),
                     "multi known");
    expectSameAnswer(multiReadRequest(id++, "m2",
                                      {"cpu", "nope", "disk_platters",
                                       "bogus", "exhaust"}),
                     "multi mixed");
    expectSameAnswer(multiReadRequest(id++, "m1", {"nope"}),
                     "multi unknown component only");
    expectSameAnswer(multiReadRequest(id++, "m3", {"cpu", "disk"}),
                     "multi unknown machine");
    expectSameAnswer(
        fullWidthName(multiReadRequest(id++, "m1", {"cpu"}), kFirstName),
        "multi full-width machine");
    expectSameAnswer(multiReadRequest(id++, "m2",
                                      {"cpu", "disk", "inlet", "ps", "nope",
                                       "cpu", "exhaust", "disk", "ps_air",
                                       "cpu_air", "x", "inlet"}),
                     "multi at the component cap");

    // Every answer came from the snapshot: nothing reached the queue.
    EXPECT_EQ(plane->queueDepth(), 0u);
    EXPECT_GT(service.sensorReads(), 0u);
    EXPECT_EQ(service.multiReads(), 4u);
}

TEST_F(ShmPlane, NamesTheSnapshotCannotHoldGoToTheSolver)
{
    uint32_t id = 40;
    expectSolverAnswer(
        withName(sensorRequest(id++, "x", "cpu"), kFirstName, kWideMachine),
        "32-character machine");
    expectSolverAnswer(
        withName(sensorRequest(id++, "x", "nope"), kFirstName, kWideMachine),
        "unknown component of a 32-character machine");
    expectSolverAnswer(withName(multiReadRequest(id++, "x",
                                                 {"cpu", "disk", "nope"}),
                                kFirstName, kWideMachine),
                       "MultiRead on a 32-character machine");
    expectSolverAnswer(
        withName(sensorRequest(id++, "wide_nodes", "x"), kSecondName,
                 kWideNode),
        "32-character component");
    expectSolverAnswer(sensorRequest(id++, "wide_nodes", "wd"),
                       "short alias to a 32-character node");
    // A MultiRead packs each component into at most 31 bytes, so its
    // way to a 32-character node is the alias.
    expectSolverAnswer(
        multiReadRequest(id++, "wide_nodes", {"cpu", "wd", "nope"}),
        "MultiRead through a short alias to a 32-character node");

    // What the snapshot holds in full it still answers inline: the
    // published nodes of a machine held in part, and the alias on a
    // machine without its target.
    expectSameAnswer(sensorRequest(id++, "wide_nodes", "cpu"),
                     "published node of a machine held in part");
    expectSameAnswer(multiReadRequest(id++, "m2", {"wd", "cpu"}),
                     "alias whose target this machine lacks");
    EXPECT_EQ(plane->queueDepth(), 0u);
    EXPECT_EQ(service.multiReads(), 3u);
}

TEST_F(ShmPlane, HostileDatagramsGetNoReply)
{
    proto::SensorReply stray;
    stray.requestId = 5;
    expectDropped(proto::encode(stray), proto::kMessageSize,
                  "reply-type datagram");

    expectDropped(sensorRequest(6, "m1", "cpu"), proto::kMessageSize / 2,
                  "truncated datagram");

    proto::Packet bad_magic = sensorRequest(7, "m1", "cpu");
    bad_magic[0] ^= 0xff;
    expectDropped(bad_magic, proto::kMessageSize, "bad magic");

    proto::Packet empty_list = multiReadRequest(8, "m1", {"cpu"});
    std::memset(empty_list.data() + kSecondName, 0,
                proto::kMessageSize - kSecondName);
    expectDropped(empty_list, proto::kMessageSize, "empty MultiRead list");

    // A packed component one byte past the name width.
    proto::Packet long_component = multiReadRequest(9, "m1", {"cpu"});
    long_component[kSecondName + 1] = 32;
    std::memset(long_component.data() + kSecondName + 2, 'c', 32);
    expectDropped(long_component, proto::kMessageSize,
                  "overlong MultiRead component");
    EXPECT_EQ(plane->queueDepth(), 0u);
}

TEST_F(ShmPlane, MetricsPagesWalkOneSnapshot)
{
    auto page = [&](uint32_t id, uint32_t offset) {
        proto::Packet request = metricsRequest(id, offset);
        send(request);
        reference.handlePacket(request.data(), request.size());
        std::optional<proto::MetricsReply> reply;
        if (auto packet = nextReply()) {
            auto message = proto::decode(*packet);
            if (message) {
                if (auto *metrics =
                        std::get_if<proto::MetricsReply>(&*message))
                    reply = *metrics;
            }
        }
        return reply;
    };

    // Walk the whole snapshot from offset 0.
    std::string text;
    uint32_t offset = 0;
    uint32_t id = 100;
    do {
        auto reply = page(id++, offset);
        ASSERT_TRUE(reply.has_value()) << "offset " << offset;
        ASSERT_EQ(reply->status, proto::Status::Ok) << "offset " << offset;
        ASSERT_FALSE(reply->fragment.empty()) << "offset " << offset;
        if (reply->nextOffset != 0) {
            ASSERT_EQ(reply->nextOffset, offset + reply->fragment.size());
        }
        text += reply->fragment;
        offset = reply->nextOffset;
    } while (offset != 0);
    ASSERT_GT(text.size(), 2 * proto::kMetricsFragmentMax);
    EXPECT_NE(text.find("net_sensor_reads_total"), std::string::npos);

    // A page from the middle comes from the same snapshot.
    auto middle = page(id++, 7);
    ASSERT_TRUE(middle.has_value());
    EXPECT_EQ(middle->status, proto::Status::Ok);
    EXPECT_EQ(middle->fragment, text.substr(7, proto::kMetricsFragmentMax));
    EXPECT_EQ(middle->nextOffset, 7 + proto::kMetricsFragmentMax);

    // At or past the end: BadCommand, nothing more to read.
    for (uint32_t past :
         {uint32_t(text.size()), uint32_t(text.size() + 999)}) {
        auto reply = page(id++, past);
        ASSERT_TRUE(reply.has_value()) << "offset " << past;
        EXPECT_EQ(reply->status, proto::Status::BadCommand);
        EXPECT_EQ(reply->nextOffset, 0u);
        EXPECT_TRUE(reply->fragment.empty());
    }
    expectSameCounters("metrics pages");
    EXPECT_EQ(plane->queueDepth(), 0u);
}

/**
 * One hammer client: ships a deterministic sequenced update stream for
 * its own machine (deliberately skipping some sequence numbers so the
 * expected loss count is exact), interleaved with sensor-read RPCs.
 */
struct HammerClient
{
    std::string machine;
    uint64_t sent = 0;
    uint64_t skipped = 0;
    uint64_t readsAnswered = 0;
    double finalUtilization = 0.0;

    void
    run(uint16_t port, uint64_t updates, bool with_reads)
    {
        net::UdpSocket socket;
        net::Endpoint solver{*net::resolveHost("127.0.0.1"), port};
        uint32_t request_id = 1;
        for (uint64_t seq = 0; seq < updates; ++seq) {
            if (seq % 7 == 3 && seq + 1 != updates) {
                // A deliberate gap the solver must account as lost.
                ++skipped;
                continue;
            }
            proto::UtilizationUpdate update;
            update.machine = machine;
            update.component = "cpu";
            update.utilization =
                0.25 + 0.5 * double(seq) / double(updates);
            update.sequence = seq;
            proto::Packet packet = proto::encode(update);
            ASSERT_TRUE(
                socket.sendTo(solver, packet.data(), packet.size()));
            ++sent;
            finalUtilization = update.utilization;

            if (with_reads && seq % 16 == 5) {
                proto::SensorRequest request;
                request.requestId = request_id++;
                request.machine = machine;
                request.component = "cpu";
                proto::Packet ask = proto::encode(request);
                ASSERT_TRUE(
                    socket.sendTo(solver, ask.data(), ask.size()));
                uint8_t buffer[proto::kMessageSize];
                auto got =
                    socket.recvFrom(buffer, sizeof(buffer), nullptr, 1.0);
                if (got) {
                    auto message = proto::decode(buffer, *got);
                    ASSERT_TRUE(message.has_value());
                    ASSERT_NE(
                        std::get_if<proto::SensorReply>(&*message),
                        nullptr);
                    ++readsAnswered;
                }
            }
            // Pace the stream so loopback socket buffers never shed
            // packets — the loss ledger must come out exact.
            if (seq % 8 == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
        }
    }
};

/** Drive one daemon with 4 concurrent clients; return its solver's
 *  trajectory fingerprint after stepping it deterministically. */
void
hammerDaemon(unsigned serve_threads, const std::string &shm_name,
             std::vector<double> *fingerprint,
             std::vector<double> *final_utilizations)
{
    constexpr unsigned kClients = 4;
    constexpr uint64_t kUpdates = 160;

    core::Solver solver;
    for (unsigned i = 0; i < kClients; ++i)
        solver.addMachine(
            core::table1Server("m" + std::to_string(i)));

    metrics::Registry registry;
    proto::SolverDaemon::Config config;
    config.port = 0;
    config.serveThreads = serve_threads;
    config.iterationSeconds = 0.0; // stepped manually below
    config.statsLogSeconds = 0.0;
    config.shmName = shm_name;
    config.registry = &registry;
    proto::SolverDaemon daemon(solver, config);
    EXPECT_EQ(daemon.requestPlane().workers(), serve_threads);
    std::thread server([&] { daemon.run(); });

    std::vector<HammerClient> clients(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
        clients[i].machine = "m" + std::to_string(i);
        threads.emplace_back([&, i] {
            clients[i].run(daemon.port(), kUpdates, /*with_reads=*/true);
        });
    }
    for (auto &thread : threads)
        thread.join();

    uint64_t total_sent = 0, total_skipped = 0, reads_answered = 0;
    for (const HammerClient &client : clients) {
        total_sent += client.sent;
        total_skipped += client.skipped;
        reads_answered += client.readsAnswered;
    }
    // Loopback with paced senders: every datagram arrives, so the
    // ledger must balance exactly — received == sent and the
    // deliberate sequence gaps are the entire loss count.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        if (daemon.service().lossStats().received == total_sent &&
            daemon.service().updatesApplied() == total_sent &&
            daemon.requestPlane().queueDepth() == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    auto loss = daemon.service().lossStats();
    EXPECT_EQ(loss.received, total_sent);
    EXPECT_EQ(loss.lost, total_skipped);
    EXPECT_EQ(loss.duplicates, 0u);
    EXPECT_EQ(loss.reordered, 0u);
    EXPECT_EQ(loss.senders, kClients);
    EXPECT_EQ(daemon.service().updatesApplied(), total_sent);
    EXPECT_GT(reads_answered, 0u);
    EXPECT_EQ(daemon.requestPlane().replySendErrors(), 0u);

    // Per-sender exactness, not just in aggregate.
    std::vector<state::SenderRecord> records;
    daemon.service().exportSenders(records);
    for (const auto &record : records) {
        unsigned index = unsigned(record.machine.back() - '0');
        ASSERT_LT(index, kClients);
        EXPECT_EQ(record.received, clients[index].sent)
            << record.machine;
        EXPECT_EQ(record.lost, clients[index].skipped)
            << record.machine;
    }

    daemon.stop();
    server.join();

    final_utilizations->clear();
    for (unsigned i = 0; i < kClients; ++i)
        final_utilizations->push_back(
            solver.machine("m" + std::to_string(i)).utilization("cpu"));

    // Deterministic stepping after the hammer: any divergence in what
    // the daemons applied shows up as a bitwise temperature mismatch.
    for (int i = 0; i < 500; ++i)
        solver.iterate();
    fingerprint->clear();
    for (unsigned i = 0; i < kClients; ++i) {
        std::string machine = "m" + std::to_string(i);
        fingerprint->push_back(solver.temperature(machine, "cpu"));
        fingerprint->push_back(
            solver.temperature(machine, "disk_platters"));
        fingerprint->push_back(solver.temperature(machine, "inlet"));
    }
}

TEST(RequestPlaneHammer, ShardedMatchesSerialBitwise)
{
    std::vector<double> serial_fp, sharded_fp;
    std::vector<double> serial_util, sharded_util;
    hammerDaemon(1, "", &serial_fp, &serial_util);
    hammerDaemon(4,
                 "/mercury.rpc_plane." + std::to_string(::getpid()),
                 &sharded_fp, &sharded_util);

    ASSERT_EQ(serial_util.size(), sharded_util.size());
    for (size_t i = 0; i < serial_util.size(); ++i)
        EXPECT_EQ(serial_util[i], sharded_util[i]) << "machine " << i;
    ASSERT_EQ(serial_fp.size(), sharded_fp.size());
    for (size_t i = 0; i < serial_fp.size(); ++i)
        EXPECT_EQ(serial_fp[i], sharded_fp[i]) << "entry " << i;
}

TEST(RequestPlaneHammer, ShardedDaemonSurvivesHammerWhileStepping)
{
    // TSan food: the solver thread iterates at full tilt while 4
    // clients mutate and read concurrently.
    constexpr unsigned kClients = 4;
    core::Solver solver;
    for (unsigned i = 0; i < kClients; ++i)
        solver.addMachine(core::table1Server("s" + std::to_string(i)));

    metrics::Registry registry;
    proto::SolverDaemon::Config config;
    config.port = 0;
    config.serveThreads = kClients;
    config.iterationSeconds = 0.001;
    config.statsLogSeconds = 0.0;
    config.registry = &registry;
    proto::SolverDaemon daemon(solver, config);
    std::thread server([&] { daemon.run(); });

    std::vector<HammerClient> clients(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
        clients[i].machine = "s" + std::to_string(i);
        threads.emplace_back([&, i] {
            clients[i].run(daemon.port(), 96, /*with_reads=*/true);
        });
    }
    for (auto &thread : threads)
        thread.join();

    uint64_t total_sent = 0;
    for (const HammerClient &client : clients)
        total_sent += client.sent;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline &&
           daemon.service().updatesApplied() < total_sent)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(daemon.service().updatesApplied(), total_sent);
    EXPECT_GT(solver.iterations(), 0u);

    daemon.stop();
    server.join();
}

} // namespace
} // namespace mercury
