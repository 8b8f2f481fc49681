/**
 * @file
 * Wire-format tests: round trips, hostile-input rejection, the fixed
 * 128-byte framing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "proto/messages.hh"
#include "util/random.hh"

namespace mercury {
namespace proto {
namespace {

/** Lower-case hex of a whole packet. */
std::string
hexOf(const Packet &packet)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t byte : packet) {
        out += digits[byte >> 4];
        out += digits[byte & 0xf];
    }
    return out;
}

/** @p prefix followed by zero padding to one full packet. */
std::string
paddedHex(const std::string &prefix)
{
    return prefix + std::string(2 * kMessageSize - prefix.size(), '0');
}

TEST(Messages, PacketSizeIsPaper128Bytes)
{
    EXPECT_EQ(kMessageSize, 128u);
    EXPECT_EQ(sizeof(Packet), 128u);
}

TEST(Messages, UtilizationUpdateRoundTrip)
{
    UtilizationUpdate msg;
    msg.machine = "machine1";
    msg.component = "disk";
    msg.utilization = 0.375;
    msg.sequence = 987654321ULL;

    auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.has_value());
    const auto *out = std::get_if<UtilizationUpdate>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->machine, "machine1");
    EXPECT_EQ(out->component, "disk");
    EXPECT_DOUBLE_EQ(out->utilization, 0.375);
    EXPECT_EQ(out->sequence, 987654321ULL);
}

TEST(Messages, SensorRequestRoundTrip)
{
    SensorRequest msg;
    msg.requestId = 42;
    msg.machine = "m3";
    msg.component = "cpu_air";

    auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.has_value());
    const auto *out = std::get_if<SensorRequest>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->requestId, 42u);
    EXPECT_EQ(out->machine, "m3");
    EXPECT_EQ(out->component, "cpu_air");
}

TEST(Messages, SensorReplyRoundTrip)
{
    SensorReply msg;
    msg.requestId = 7;
    msg.status = Status::Ok;
    msg.temperature = 67.25;

    auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.has_value());
    const auto *out = std::get_if<SensorReply>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->requestId, 7u);
    EXPECT_EQ(out->status, Status::Ok);
    EXPECT_DOUBLE_EQ(out->temperature, 67.25);
}

TEST(Messages, SensorReplyErrorStatus)
{
    SensorReply msg;
    msg.requestId = 9;
    msg.status = Status::UnknownComponent;

    auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(std::get<SensorReply>(*decoded).status,
              Status::UnknownComponent);
}

TEST(Messages, FiddleRoundTrip)
{
    FiddleRequest request;
    request.requestId = 11;
    request.commandLine = "fiddle machine1 temperature inlet 30";
    auto decoded = decode(encode(request));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(std::get<FiddleRequest>(*decoded).commandLine,
              request.commandLine);

    FiddleReply reply;
    reply.requestId = 11;
    reply.status = Status::BadCommand;
    reply.message = "unknown machine 'machine9'";
    auto decoded_reply = decode(encode(reply));
    ASSERT_TRUE(decoded_reply.has_value());
    const auto &out = std::get<FiddleReply>(*decoded_reply);
    EXPECT_EQ(out.status, Status::BadCommand);
    EXPECT_EQ(out.message, reply.message);
}

TEST(Messages, RejectsBadMagic)
{
    Packet packet = encode(SensorRequest{1, "m1", "cpu"});
    packet[0] ^= 0xff;
    EXPECT_FALSE(decode(packet).has_value());
}

TEST(Messages, RejectsBadVersion)
{
    Packet packet = encode(SensorRequest{1, "m1", "cpu"});
    packet[4] = 99;
    EXPECT_FALSE(decode(packet).has_value());
}

TEST(Messages, RejectsUnknownType)
{
    Packet packet = encode(SensorRequest{1, "m1", "cpu"});
    packet[5] = 200;
    EXPECT_FALSE(decode(packet).has_value());
}

TEST(Messages, RejectsWrongLength)
{
    Packet packet = encode(SensorRequest{1, "m1", "cpu"});
    EXPECT_FALSE(decode(packet.data(), 64).has_value());
    EXPECT_FALSE(decode(packet.data(), 127).has_value());
    EXPECT_TRUE(decode(packet.data(), 128).has_value());
}

TEST(Messages, RejectsEmptyNames)
{
    UtilizationUpdate msg;
    msg.machine = "";
    msg.component = "cpu";
    EXPECT_FALSE(decode(encode(msg)).has_value());
}

TEST(Messages, AllZeroPacketRejected)
{
    Packet packet{};
    EXPECT_FALSE(decode(packet).has_value());
}

TEST(Messages, OversizedFieldIsFatal)
{
    UtilizationUpdate msg;
    msg.machine = std::string(40, 'x'); // field width is 32
    msg.component = "cpu";
    EXPECT_EXIT(encode(msg), testing::ExitedWithCode(1), "too long");
}

TEST(Messages, StatusNames)
{
    EXPECT_STREQ(statusName(Status::Ok), "ok");
    EXPECT_STREQ(statusName(Status::BadCommand), "bad command");
}

TEST(Messages, RequestIdHelpers)
{
    EXPECT_EQ(peekRequestId(encode(SensorRequest{77, "m", "c"})), 77u);
    SensorReply reply;
    reply.requestId = 78;
    EXPECT_EQ(peekRequestId(encode(reply)), 78u);
    FiddleRequest fiddle_request;
    fiddle_request.requestId = 79;
    fiddle_request.commandLine = "m1 fan 20";
    EXPECT_EQ(peekRequestId(encode(fiddle_request)), 79u);
    FiddleReply fiddle_reply;
    fiddle_reply.requestId = 80;
    EXPECT_EQ(peekRequestId(encode(fiddle_reply)), 80u);

    // One-way updates carry no id; corrupt headers yield none.
    UtilizationUpdate update;
    update.machine = "m";
    update.component = "c";
    update.sequence = 9;
    EXPECT_FALSE(peekRequestId(encode(update)).has_value());
    Packet bad = encode(SensorRequest{1, "m", "c"});
    bad[0] ^= 0xff;
    EXPECT_FALSE(peekRequestId(bad).has_value());

    auto decoded = decode(encode(SensorRequest{81, "m", "c"}));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(requestId(*decoded), 81u);
    auto one_way = decode(encode(update));
    ASSERT_TRUE(one_way.has_value());
    EXPECT_FALSE(requestId(*one_way).has_value());
}

// Every message type, byte for byte. The layouts are frozen: these
// bytes change only together with kVersion.
TEST(GoldenBytes, EveryMessageTypeIsBitIdentical)
{
    UtilizationUpdate update;
    update.machine = "m1";
    update.component = "cpu";
    update.utilization = 0.625;
    update.sequence = 0x0102030405060708ull;
    update.backlog = 7;
    update.substituted = 1;
    EXPECT_EQ(hexOf(encode(update)),
              paddedHex(
                  "4d524331010100006d3100000000000000000000000000000000000000000000"
                  "0000000000000000637075000000000000000000000000000000000000000000"
                  "0000000000000000000000000000e43f08070605040302010700000001"));

    EXPECT_EQ(hexOf(encode(SensorRequest{0xa1b2c3d4u, "m1", "disk"})),
              paddedHex(
                  "4d52433101020000d4c3b2a16d31000000000000000000000000000000000000"
                  "0000000000000000000000006469736b"));

    SensorReply sensor_reply;
    sensor_reply.requestId = 42;
    sensor_reply.temperature = 41.5;
    EXPECT_EQ(hexOf(encode(sensor_reply)),
              paddedHex("4d524331010300002a000000000000000000000000c04440"));

    FiddleRequest fiddle_request;
    fiddle_request.requestId = 7;
    fiddle_request.commandLine = "m1 utilization cpu 0.9";
    EXPECT_EQ(hexOf(encode(fiddle_request)),
              paddedHex(
                  "4d52433101040000070000006d31207574696c697a6174696f6e206370752030"
                  "2e39"));

    FiddleReply fiddle_reply;
    fiddle_reply.requestId = 8;
    fiddle_reply.status = Status::BadCommand;
    fiddle_reply.message = "unknown verb";
    EXPECT_EQ(hexOf(encode(fiddle_reply)),
              paddedHex("4d524331010500000800000003756e6b6e6f776e2076657262"));

    MultiReadRequest multi_request;
    multi_request.requestId = 9;
    multi_request.machine = "m2";
    multi_request.components = {"cpu", "disk", "inlet"};
    EXPECT_EQ(hexOf(encode(multi_request)),
              paddedHex(
                  "4d52433101060000090000006d32000000000000000000000000000000000000"
                  "0000000000000000000000000303637075046469736b05696e6c6574"));

    MultiReadReply multi_reply;
    multi_reply.requestId = 10;
    multi_reply.entries = {{Status::Ok, 40.25},
                           {Status::UnknownComponent, 0.0}};
    EXPECT_EQ(hexOf(encode(multi_reply)),
              paddedHex("4d524331010700000a000000000200000000000020444002"));

    EXPECT_EQ(hexOf(encode(MetricsRequest{11, 220})),
              paddedHex("4d524331010800000b000000dc"));

    MetricsReply metrics_reply;
    metrics_reply.requestId = 12;
    metrics_reply.nextOffset = 330;
    metrics_reply.fragment = "net_backlog_depth 0\n";
    EXPECT_EQ(hexOf(encode(metrics_reply)),
              paddedHex(
                  "4d524331010900000c000000004a0100006e65745f6261636b6c6f675f646570"
                  "746820300a"));
}

TEST(HostileInput, NonFiniteNumbersDoNotDecode)
{
    // A NaN utilization would sail through std::clamp into the solver
    // and turn the CPU to NaN one iteration later.
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        UtilizationUpdate update;
        update.machine = "m1";
        update.component = "cpu";
        update.utilization = bad;
        EXPECT_FALSE(decode(encode(update)).has_value()) << bad;

        SensorReply reply;
        reply.requestId = 1;
        reply.temperature = bad;
        EXPECT_FALSE(decode(encode(reply)).has_value()) << bad;

        MultiReadReply multi;
        multi.requestId = 2;
        multi.entries = {{Status::Ok, 40.0}, {Status::Ok, bad}};
        EXPECT_FALSE(decode(encode(multi)).has_value()) << bad;
    }
}

TEST(HostileInput, TruncatedAndOversizedLengthsRejected)
{
    Packet packet = encode(SensorRequest{1, "m1", "cpu"});
    for (size_t length : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                          size_t{63}, size_t{127}}) {
        EXPECT_FALSE(decode(packet.data(), length).has_value())
            << length;
    }
    // Oversized buffers are not trusted either: exactly 128 or bust.
    uint8_t oversized[proto::kMessageSize + 16] = {};
    std::memcpy(oversized, packet.data(), packet.size());
    EXPECT_FALSE(decode(oversized, sizeof(oversized)).has_value());
}

TEST(HostileInput, FullWidthUnterminatedNamesDecodeSafely)
{
    // A hostile packet can fill a fixed-width name field end to end
    // with no NUL; the decoder must clamp at the field width.
    Packet packet = encode(SensorRequest{1, "m", "c"});
    for (size_t i = 12; i < 12 + 64; ++i) // both 32-byte name fields
        packet[i] = 0xc3;                 // non-UTF8 garbage
    auto decoded = decode(packet);
    ASSERT_TRUE(decoded.has_value());
    const auto &request = std::get<SensorRequest>(*decoded);
    EXPECT_EQ(request.machine.size(), 32u);
    EXPECT_EQ(request.component.size(), 32u);
}

TEST(HostileInput, FullWidthFiddleCommandDecodesSafely)
{
    FiddleRequest request;
    request.requestId = 3;
    request.commandLine = "x";
    Packet packet = encode(request);
    for (size_t i = 12; i < kMessageSize; ++i)
        packet[i] = 0xfe;
    auto decoded = decode(packet);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(std::get<FiddleRequest>(*decoded).commandLine.size(), 116u);
}

TEST(HostileInput, ReservedHeaderBytesAreIgnored)
{
    Packet packet = encode(SensorRequest{5, "m1", "cpu"});
    packet[6] = 0xab;
    packet[7] = 0xcd;
    auto decoded = decode(packet);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(std::get<SensorRequest>(*decoded).requestId, 5u);
}

TEST(HostileInput, SeededFuzzNeverCrashes)
{
    Rng rng(0xfeedface);

    // Fully random packets: essentially all rejected, none may crash.
    for (int i = 0; i < 20000; ++i) {
        Packet packet;
        for (auto &byte : packet)
            byte = static_cast<uint8_t>(rng.next());
        (void)decode(packet);
        (void)peekRequestId(packet);
    }

    // Valid header, random type and payload: exercises every decoder
    // branch against garbage field bytes.
    for (int i = 0; i < 20000; ++i) {
        Packet packet;
        for (auto &byte : packet)
            byte = static_cast<uint8_t>(rng.next());
        packet[0] = 0x4d; // 'M'
        packet[1] = 0x52; // 'R'
        packet[2] = 0x43; // 'C'
        packet[3] = 0x31; // '1'
        packet[4] = kVersion;
        packet[5] = static_cast<uint8_t>(rng.uniformInt(0, 8));
        auto decoded = decode(packet);
        if (decoded.has_value()) {
            // Whatever decoded must also answer the id helpers.
            (void)requestId(*decoded);
            (void)peekRequestId(packet);
        }
    }
}

} // namespace
} // namespace proto
} // namespace mercury
