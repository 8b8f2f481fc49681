/**
 * @file
 * The replication subsystem in-process: WAL encode/decode and tail
 * tolerance, the compact mutation codec, bitwise replay (fresh and
 * from a checkpoint), the replication wire format, a primary/standby
 * loopback over real UDP, and the state hash.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "core/solver.hh"
#include "net/udp.hh"
#include "proto/solver_service.hh"
#include "proto/wal_codec.hh"
#include "replica/replicator.hh"
#include "replica/standby.hh"
#include "replica/wal.hh"
#include "replica/wire.hh"
#include "state/checkpoint.hh"
#include "util/bytes.hh"
#include "util/crc32c.hh"

namespace mercury {
namespace {

std::string
tempPath(const std::string &tag)
{
    return "/tmp/mercury_replica_test." + tag + "." +
           std::to_string(::getpid());
}

core::SolverConfig
testSolverConfig()
{
    core::SolverConfig config;
    config.iterationSeconds = 1.0;
    return config;
}

void
addServer(core::Solver &solver)
{
    solver.addMachine(core::table1Server("server"));
}

proto::Message
utilizationMessage(double utilization, uint64_t sequence)
{
    proto::UtilizationUpdate update;
    update.machine = "server";
    update.component = "cpu";
    update.utilization = utilization;
    update.sequence = sequence;
    return update;
}

std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

std::string
hexOf(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t byte : bytes) {
        out += digits[byte >> 4];
        out += digits[byte & 0xf];
    }
    return out;
}

TEST(WalCodec, UtilizationRoundTrip)
{
    proto::UtilizationUpdate update;
    update.machine = "server";
    update.component = "disk";
    update.utilization = 0.728515625;
    update.sequence = 91234;
    update.backlog = 17;
    update.substituted = 1;

    auto payload = proto::encodeWalMutation(update);
    ASSERT_FALSE(payload.empty());
    auto decoded =
        proto::decodeWalMutation(payload.data(), payload.size());
    ASSERT_TRUE(decoded.has_value());
    const auto *got = std::get_if<proto::UtilizationUpdate>(&*decoded);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->machine, update.machine);
    EXPECT_EQ(got->component, update.component);
    EXPECT_EQ(got->utilization, update.utilization); // bitwise
    EXPECT_EQ(got->sequence, update.sequence);
    EXPECT_EQ(got->backlog, update.backlog);
    EXPECT_EQ(got->substituted, update.substituted);
}

TEST(WalCodec, FiddleRoundTrip)
{
    proto::FiddleRequest request;
    request.requestId = 77;
    request.commandLine = "server pin cpu 55";

    auto payload = proto::encodeWalMutation(request);
    ASSERT_FALSE(payload.empty());
    auto decoded =
        proto::decodeWalMutation(payload.data(), payload.size());
    ASSERT_TRUE(decoded.has_value());
    const auto *got = std::get_if<proto::FiddleRequest>(&*decoded);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->requestId, request.requestId);
    EXPECT_EQ(got->commandLine, request.commandLine);
}

TEST(WalCodec, ReadOnlyFiddleLinesAreNotLoggable)
{
    EXPECT_FALSE(proto::fiddleLineMutates("stats"));
    EXPECT_FALSE(proto::fiddleLineMutates("replica"));
    EXPECT_FALSE(proto::fiddleLineMutates("checkpoint"));
    EXPECT_FALSE(proto::fiddleLineMutates("guard"));
    EXPECT_FALSE(proto::fiddleLineMutates("guard page 2"));
    EXPECT_FALSE(proto::fiddleLineMutates("fiddle stats"));
    EXPECT_FALSE(proto::fiddleLineMutates("  "));
    EXPECT_TRUE(proto::fiddleLineMutates("server pin cpu 55"));
    EXPECT_TRUE(proto::fiddleLineMutates("fiddle server fan 120"));
    EXPECT_TRUE(proto::fiddleLineMutates("room ac crac1 18"));

    proto::FiddleRequest stats;
    stats.requestId = 1;
    stats.commandLine = "stats";
    EXPECT_TRUE(proto::encodeWalMutation(stats).empty());

    // Read RPCs never belong in the WAL at all.
    proto::SensorRequest read;
    read.machine = "server";
    read.component = "cpu";
    EXPECT_TRUE(proto::encodeWalMutation(read).empty());
}

TEST(WalCodec, HostileBytesAreRejected)
{
    EXPECT_FALSE(proto::decodeWalMutation(nullptr, 0).has_value());

    auto payload = proto::encodeWalMutation(utilizationMessage(0.5, 1));
    ASSERT_FALSE(payload.empty());
    // Every truncation must fail cleanly, never read out of bounds.
    for (size_t length = 0; length < payload.size(); ++length)
        EXPECT_FALSE(
            proto::decodeWalMutation(payload.data(), length).has_value())
            << "length " << length;

    std::vector<uint8_t> bad_tag = payload;
    bad_tag[0] = 0x7f;
    EXPECT_FALSE(
        proto::decodeWalMutation(bad_tag.data(), bad_tag.size())
            .has_value());

    std::vector<uint8_t> trailing = payload;
    trailing.push_back(0);
    EXPECT_FALSE(
        proto::decodeWalMutation(trailing.data(), trailing.size())
            .has_value());
}

TEST(Wal, WriterReaderRoundTrip)
{
    const std::string path = tempPath("roundtrip");
    std::remove(path.c_str());
    std::remove((path + ".old").c_str());

    replica::WalHeader header;
    header.topologyHash = 0xfeedface;
    header.startIteration = 12;
    header.startSequence = 5;
    std::string error;
    auto writer = replica::WalWriter::create(path, header, &error);
    ASSERT_NE(writer, nullptr) << error;

    for (uint64_t i = 0; i < 10; ++i) {
        replica::WalRecord record;
        record.sequence = 5 + i;
        record.iteration = 12 + i / 2;
        record.kind = i == 9 ? replica::WalRecordKind::CheckpointMarker
                             : replica::WalRecordKind::Mutation;
        record.payload.assign(i + 1, uint8_t(0x40 + i));
        writer->append(record);
    }
    EXPECT_TRUE(writer->sync());
    EXPECT_EQ(writer->recordsAppended(), 10u);
    writer.reset();

    replica::WalReadResult wal;
    ASSERT_TRUE(replica::readWalFile(path, &wal, &error)) << error;
    EXPECT_TRUE(wal.tailOk) << wal.tailError;
    EXPECT_EQ(wal.header.topologyHash, header.topologyHash);
    EXPECT_EQ(wal.header.startIteration, header.startIteration);
    EXPECT_EQ(wal.header.startSequence, header.startSequence);
    ASSERT_EQ(wal.records.size(), 10u);
    for (uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(wal.records[i].sequence, 5 + i);
        EXPECT_EQ(wal.records[i].payload.size(), i + 1);
    }
    EXPECT_EQ(wal.records[9].kind,
              replica::WalRecordKind::CheckpointMarker);
    std::remove(path.c_str());
}

TEST(Wal, TailCorruptionYieldsValidPrefix)
{
    const std::string path = tempPath("corrupt");
    std::remove(path.c_str());

    replica::WalHeader header;
    header.topologyHash = 1;
    std::string error;
    auto writer = replica::WalWriter::create(path, header, &error);
    ASSERT_NE(writer, nullptr) << error;
    for (uint64_t i = 0; i < 6; ++i) {
        replica::WalRecord record;
        record.sequence = 1 + i;
        record.iteration = i;
        record.payload.assign(8, uint8_t(i));
        writer->append(record);
    }
    ASSERT_TRUE(writer->sync());
    writer.reset();

    // Flip one byte inside the last record's payload.
    auto bytes = fileBytes(path);
    ASSERT_GT(bytes.size(), 4u);
    bytes[bytes.size() - 3] ^= 0xff;
    writeBytes(path, bytes);

    replica::WalReadResult wal;
    ASSERT_TRUE(replica::readWalFile(path, &wal, &error)) << error;
    EXPECT_FALSE(wal.tailOk);
    EXPECT_EQ(wal.records.size(), 5u);
    EXPECT_FALSE(wal.tailError.empty());

    // Truncation mid-record degrades the same way.
    writeBytes(path, std::vector<uint8_t>(bytes.begin(),
                                          bytes.end() - 10));
    ASSERT_TRUE(replica::readWalFile(path, &wal, &error)) << error;
    EXPECT_FALSE(wal.tailOk);
    EXPECT_EQ(wal.records.size(), 5u);
    std::remove(path.c_str());
}

TEST(Wal, SequenceBreakEndsThePrefix)
{
    const std::string path = tempPath("gap");
    std::remove(path.c_str());

    replica::WalHeader header;
    std::vector<uint8_t> bytes = replica::encodeWalHeader(header);
    for (uint64_t seq : {1, 2, 4}) { // 3 is missing
        replica::WalRecord record;
        record.sequence = seq;
        record.iteration = seq;
        record.payload = {uint8_t(seq)};
        replica::appendRecordBytes(bytes, record);
    }
    writeBytes(path, bytes);

    replica::WalReadResult wal;
    std::string error;
    ASSERT_TRUE(replica::readWalFile(path, &wal, &error)) << error;
    EXPECT_FALSE(wal.tailOk);
    EXPECT_EQ(wal.records.size(), 2u);
    std::remove(path.c_str());
}

/**
 * One WAL record built field by field, with @p payload_bytes payload
 * bytes present whatever @p length claims, and its CRC re-sealed over
 * what was written: each hostile field then reaches its own check
 * rather than the CRC's.
 */
std::vector<uint8_t>
sealedRecord(uint8_t kind, uint16_t length, uint64_t sequence,
             size_t payload_bytes)
{
    std::vector<uint8_t> out;
    ByteWriter w(out);
    w.u32(0); // CRC, patched below
    w.u8(kind);
    w.u8(0); // reserved
    w.u16(length);
    w.u64(sequence);
    w.u64(sequence); // iteration
    std::vector<uint8_t> payload(payload_bytes, 0x5a);
    w.bytes(payload.data(), payload.size());
    w.patchU32(0, crc32c(out.data() + 4, out.size() - 4));
    return out;
}

TEST(Wal, HostileRecordsEndInTheirNamedErrorAfterTheValidPrefix)
{
    const std::string path = tempPath("hostile");
    std::remove(path.c_str());
    const uint16_t absurd = uint16_t(replica::kWalMaxPayload + 1);
    std::vector<uint8_t> header_cut = sealedRecord(1, 8, 3, 8);
    header_cut.resize(replica::kWalRecordOverhead - 5);
    struct Case
    {
        const char *what;
        std::vector<uint8_t> record;
        std::string error;
    };
    const std::vector<Case> cases = {
        {"payload length above the cap", sealedRecord(1, absurd, 3, absurd),
         "absurd payload length 4097"},
        {"kind 0", sealedRecord(0, 8, 3, 8), "unknown record kind 0"},
        {"kind 4", sealedRecord(4, 8, 3, 8), "unknown record kind 4"},
        {"header cut short", header_cut, "truncated record header"},
        {"payload cut short", sealedRecord(1, 16, 3, 8),
         "truncated record payload"},
    };
    for (const Case &c : cases) {
        // Two valid records, then the hostile one.
        std::vector<uint8_t> bytes =
            replica::encodeWalHeader(replica::WalHeader{});
        for (uint64_t seq : {1, 2}) {
            replica::WalRecord record;
            record.sequence = seq;
            record.iteration = seq;
            record.payload = {uint8_t(seq), 7};
            replica::appendRecordBytes(bytes, record);
        }
        size_t offset = bytes.size();
        bytes.insert(bytes.end(), c.record.begin(), c.record.end());
        writeBytes(path, bytes);

        replica::WalReadResult wal;
        std::string error;
        ASSERT_TRUE(replica::readWalFile(path, &wal, &error))
            << c.what << ": " << error;
        EXPECT_FALSE(wal.tailOk) << c.what;
        EXPECT_EQ(wal.tailError,
                  c.error + " at offset " + std::to_string(offset))
            << c.what;
        ASSERT_EQ(wal.records.size(), 2u) << c.what;
        EXPECT_EQ(wal.records[1].sequence, 2u) << c.what;
        EXPECT_EQ(wal.records[1].payload, (std::vector<uint8_t>{2, 7}))
            << c.what;

        // parseRecord names the same error on the record alone.
        replica::WalRecord record;
        std::string why;
        EXPECT_EQ(replica::parseRecord(c.record.data(), c.record.size(),
                                       &record, &why),
                  0u)
            << c.what;
        EXPECT_EQ(why, c.error) << c.what;
    }
    std::remove(path.c_str());
}

TEST(Wal, HostileHeadersAreRefused)
{
    const std::string path = tempPath("hostile_header");
    std::remove(path.c_str());
    auto header = [](uint32_t magic, uint32_t version) {
        std::vector<uint8_t> out;
        ByteWriter w(out);
        w.u32(magic);
        w.u32(version);
        w.u64(1); // topology hash
        w.u64(0); // start iteration
        w.u64(1); // start sequence
        replica::WalRecord record;
        record.sequence = 1;
        record.payload = {1};
        replica::appendRecordBytes(out, record);
        return out;
    };
    struct Case
    {
        const char *what;
        std::vector<uint8_t> bytes;
        std::string error;
    };
    const std::vector<Case> cases = {
        {"bad magic", header(replica::kWalMagic ^ 1, replica::kWalVersion),
         "bad magic"},
        {"version + 1", header(replica::kWalMagic, replica::kWalVersion + 1),
         "unsupported version " + std::to_string(replica::kWalVersion + 1)},
    };
    for (const Case &c : cases) {
        writeBytes(path, c.bytes);
        replica::WalReadResult wal;
        std::string error;
        EXPECT_FALSE(replica::readWalFile(path, &wal, &error)) << c.what;
        EXPECT_EQ(error, c.error) << c.what;
    }
    // The same bytes with the real magic and version read back.
    writeBytes(path, header(replica::kWalMagic, replica::kWalVersion));
    replica::WalReadResult wal;
    std::string error;
    ASSERT_TRUE(replica::readWalFile(path, &wal, &error)) << error;
    EXPECT_TRUE(wal.tailOk) << wal.tailError;
    EXPECT_EQ(wal.records.size(), 1u);
    std::remove(path.c_str());
}

TEST(Wal, CreatePreservesThePredecessorAsOld)
{
    const std::string path = tempPath("old");
    std::remove(path.c_str());
    std::remove((path + ".old").c_str());

    replica::WalHeader first;
    first.startIteration = 7;
    std::string error;
    auto writer = replica::WalWriter::create(path, first, &error);
    ASSERT_NE(writer, nullptr) << error;
    writer.reset();

    replica::WalHeader second;
    second.startIteration = 99;
    writer = replica::WalWriter::create(path, second, &error);
    ASSERT_NE(writer, nullptr) << error;
    writer.reset();

    replica::WalReadResult old_wal;
    ASSERT_TRUE(
        replica::readWalFile(path + ".old", &old_wal, &error))
        << error;
    EXPECT_EQ(old_wal.header.startIteration, 7u);
    replica::WalReadResult new_wal;
    ASSERT_TRUE(replica::readWalFile(path, &new_wal, &error)) << error;
    EXPECT_EQ(new_wal.header.startIteration, 99u);
    std::remove(path.c_str());
    std::remove((path + ".old").c_str());
}

/**
 * Drive a "live" solver the way the daemon does — iterate, then apply
 * drained mutations logged to a WAL — and prove replaying that WAL
 * into a fresh solver reproduces the run bitwise.
 */
TEST(WalReplay, ReproducesALiveRunBitwise)
{
    const std::string path = tempPath("replay");
    std::remove(path.c_str());

    core::Solver live(testSolverConfig());
    addServer(live);
    proto::SolverService live_service(live);

    replica::WalHeader header;
    header.topologyHash = state::topologyHash(live);
    header.startIteration = 0;
    std::string error;
    auto writer = replica::WalWriter::create(path, header, &error);
    ASSERT_NE(writer, nullptr) << error;

    uint64_t next_seq = 1;
    auto log_and_apply = [&](const proto::Message &message) {
        auto payload = proto::encodeWalMutation(message);
        ASSERT_FALSE(payload.empty());
        replica::WalRecord record;
        record.sequence = next_seq++;
        record.iteration = live.iterations();
        record.payload = std::move(payload);
        writer->append(record);
        live_service.handleReplicated(message);
    };

    for (int i = 0; i < 120; ++i) {
        live.iterate();
        if (i % 7 == 0)
            log_and_apply(
                utilizationMessage(0.15 + 0.007 * i, uint64_t(i + 1)));
        if (i == 40) {
            proto::FiddleRequest fiddle;
            fiddle.requestId = 9;
            fiddle.commandLine = "server fan 140";
            log_and_apply(fiddle);
        }
    }
    ASSERT_TRUE(writer->sync());
    writer.reset();

    core::Solver replayed(testSolverConfig());
    addServer(replayed);
    proto::SolverService replay_service(replayed);
    replica::WalReadResult wal;
    ASSERT_TRUE(replica::readWalFile(path, &wal, &error)) << error;
    ASSERT_TRUE(wal.tailOk) << wal.tailError;

    replica::ReplayStats stats;
    ASSERT_TRUE(replica::replayWal(
        replayed, wal,
        [&](const replica::WalRecord &record) {
            auto message = proto::decodeWalMutation(
                record.payload.data(), record.payload.size());
            ASSERT_TRUE(message.has_value());
            replay_service.handleReplicated(*message);
        },
        live.iterations(), &stats, &error))
        << error;

    EXPECT_EQ(stats.applied, next_seq - 1);
    EXPECT_EQ(replayed.iterations(), live.iterations());
    EXPECT_EQ(replica::stateHash(replayed), replica::stateHash(live));

    state::Checkpoint want = state::captureSolver(live);
    state::Checkpoint got = state::captureSolver(replayed);
    ASSERT_EQ(got.machines.size(), want.machines.size());
    for (size_t m = 0; m < want.machines.size(); ++m) {
        ASSERT_EQ(got.machines[m].temperatures.size(),
                  want.machines[m].temperatures.size());
        for (size_t n = 0; n < want.machines[m].temperatures.size(); ++n)
            EXPECT_EQ(got.machines[m].temperatures[n],
                      want.machines[m].temperatures[n]) // bitwise
                << "node " << n;
        EXPECT_EQ(got.machines[m].energyConsumed,
                  want.machines[m].energyConsumed);
    }
    std::remove(path.c_str());
}

/**
 * The checkpoint interaction: rotate the WAL at a mid-run checkpoint
 * save, keep running, then restore the checkpoint and replay only the
 * rotated suffix — landing bitwise on the live run.
 */
TEST(WalReplay, CheckpointPlusSuffixLandsBitwiseOnTheLiveRun)
{
    const std::string wal_path = tempPath("suffix.wal");
    const std::string checkpoint_path = tempPath("suffix.ck");
    std::remove(wal_path.c_str());
    std::remove((wal_path + ".old").c_str());
    std::remove(checkpoint_path.c_str());

    core::Solver live(testSolverConfig());
    addServer(live);
    proto::SolverService live_service(live);

    replica::WalHeader header;
    header.topologyHash = state::topologyHash(live);
    std::string error;
    auto writer = replica::WalWriter::create(wal_path, header, &error);
    ASSERT_NE(writer, nullptr) << error;

    uint64_t next_seq = 1;
    auto log_and_apply = [&](const proto::Message &message) {
        auto payload = proto::encodeWalMutation(message);
        ASSERT_FALSE(payload.empty());
        replica::WalRecord record;
        record.sequence = next_seq++;
        record.iteration = live.iterations();
        record.payload = std::move(payload);
        writer->append(record);
        live_service.handleReplicated(message);
    };

    for (int i = 0; i < 150; ++i) {
        live.iterate();
        if (i % 5 == 0)
            log_and_apply(
                utilizationMessage(0.9 - 0.004 * i, uint64_t(i + 1)));
        if (i == 75) {
            // Loop-top checkpoint save + rotation, daemon style.
            ASSERT_TRUE(state::saveCheckpointFile(
                checkpoint_path, state::captureSolver(live), &error))
                << error;
            replica::WalHeader fresh;
            fresh.topologyHash = header.topologyHash;
            fresh.startIteration = live.iterations();
            fresh.startSequence = next_seq;
            ASSERT_TRUE(writer->rotate(fresh, &error)) << error;
        }
    }
    ASSERT_TRUE(writer->sync());
    writer.reset();

    // Restore the checkpoint, replay only the post-rotation suffix.
    core::Solver resumed(testSolverConfig());
    addServer(resumed);
    proto::SolverService resumed_service(resumed);
    state::Checkpoint checkpoint;
    ASSERT_TRUE(state::loadCheckpointFile(checkpoint_path, &checkpoint,
                                          &error))
        << error;
    ASSERT_TRUE(state::restoreSolver(resumed, checkpoint, &error))
        << error;

    replica::WalReadResult wal;
    ASSERT_TRUE(replica::readWalFile(wal_path, &wal, &error)) << error;
    ASSERT_TRUE(wal.tailOk) << wal.tailError;
    EXPECT_EQ(wal.header.startIteration, checkpoint.iterations);

    replica::ReplayStats stats;
    ASSERT_TRUE(replica::replayWal(
        resumed, wal,
        [&](const replica::WalRecord &record) {
            auto message = proto::decodeWalMutation(
                record.payload.data(), record.payload.size());
            ASSERT_TRUE(message.has_value());
            resumed_service.handleReplicated(*message);
        },
        live.iterations(), &stats, &error))
        << error;

    EXPECT_EQ(resumed.iterations(), live.iterations());
    EXPECT_EQ(replica::stateHash(resumed), replica::stateHash(live));

    std::remove(wal_path.c_str());
    std::remove((wal_path + ".old").c_str());
    std::remove(checkpoint_path.c_str());
}

TEST(WalReplay, TopologyMismatchIsRefused)
{
    const std::string path = tempPath("topo");
    std::remove(path.c_str());

    replica::WalHeader header;
    header.topologyHash = 0xdeadbeef; // not the solver's
    writeBytes(path, replica::encodeWalHeader(header));

    core::Solver solver(testSolverConfig());
    addServer(solver);
    replica::WalReadResult wal;
    std::string error;
    ASSERT_TRUE(replica::readWalFile(path, &wal, &error)) << error;
    replica::ReplayStats stats;
    EXPECT_FALSE(replica::replayWal(
        solver, wal, [](const replica::WalRecord &) {}, 0, &stats,
        &error));
    EXPECT_NE(error.find("topology"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(ReplicaWire, MessagesRoundTrip)
{
    replica::ReplicaHello hello;
    hello.topologyHash = 0xabc;
    hello.lastAppliedSeq = 41;
    hello.standbyIteration = 12;
    auto bytes = replica::encodeReplica(hello);
    auto decoded = replica::decodeReplica(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value());
    const auto *hello_got = std::get_if<replica::ReplicaHello>(&*decoded);
    ASSERT_NE(hello_got, nullptr);
    EXPECT_EQ(hello_got->lastAppliedSeq, 41u);

    replica::ReplicaRecords records;
    records.primaryIteration = 99;
    records.nextSeq = 8;
    for (uint64_t i = 0; i < 3; ++i) {
        replica::WalRecord record;
        record.sequence = 5 + i;
        record.iteration = 90 + i;
        record.payload.assign(6, uint8_t(i));
        records.records.push_back(record);
    }
    bytes = replica::encodeReplica(records);
    ASSERT_LE(bytes.size(), replica::kReplicaDatagramMax);
    decoded = replica::decodeReplica(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value());
    const auto *records_got =
        std::get_if<replica::ReplicaRecords>(&*decoded);
    ASSERT_NE(records_got, nullptr);
    ASSERT_EQ(records_got->records.size(), 3u);
    EXPECT_EQ(records_got->records[2].sequence, 7u);

    // A corrupted record inside a Records datagram kills the decode
    // (the CRC travels with the record).
    bytes[bytes.size() - 2] ^= 0xff;
    EXPECT_FALSE(
        replica::decodeReplica(bytes.data(), bytes.size()).has_value());

    replica::ReplicaAck ack_msg;
    ack_msg.contiguousSeq = 20;
    ack_msg.appliedSeq = 19;
    ack_msg.standbyIteration = 18;
    ack_msg.hashIteration = 16;
    ack_msg.stateHash = 0xdeadbeefcafef00dull;
    ack_msg.hashValid = 1;
    bytes = replica::encodeReplica(ack_msg);
    decoded = replica::decodeReplica(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value());
    const auto *ack_got = std::get_if<replica::ReplicaAck>(&*decoded);
    ASSERT_NE(ack_got, nullptr);
    EXPECT_EQ(ack_got->contiguousSeq, 20u);
    EXPECT_EQ(ack_got->appliedSeq, 19u);
    EXPECT_EQ(ack_got->stateHash, ack_msg.stateHash);
    EXPECT_EQ(ack_got->hashValid, 1);

    replica::ReplicaHeartbeat heartbeat;
    heartbeat.primaryIteration = 1234;
    heartbeat.nextSeq = 55;
    heartbeat.leaseSeconds = 2.5;
    heartbeat.hashIteration = 1216;
    heartbeat.stateHash = 0x1122334455667788ull;
    heartbeat.hashValid = 1;
    bytes = replica::encodeReplica(heartbeat);
    decoded = replica::decodeReplica(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value());
    const auto *heartbeat_got =
        std::get_if<replica::ReplicaHeartbeat>(&*decoded);
    ASSERT_NE(heartbeat_got, nullptr);
    EXPECT_EQ(heartbeat_got->stateHash, heartbeat.stateHash);
    EXPECT_EQ(heartbeat_got->leaseSeconds, 2.5);

    // Truncations never decode.
    for (size_t length = 0; length < bytes.size(); ++length)
        EXPECT_FALSE(
            replica::decodeReplica(bytes.data(), length).has_value());
}

/** Primary and standby endpoints talking over loopback UDP. */
TEST(ReplicaLoopback, StreamsAcksAndVerifiesHashes)
{
    replica::Replicator::Config primary_config;
    primary_config.heartbeatSeconds = 0.05;
    primary_config.leaseSeconds = 0.8;
    primary_config.retransmitSeconds = 0.05;
    replica::Replicator primary(primary_config, /*topology_hash=*/7,
                                /*base_iteration=*/0,
                                /*base_sequence=*/1);
    ASSERT_GT(primary.port(), 0);

    uint64_t standby_iteration = 0;
    replica::StandbyClient::Config standby_config;
    standby_config.host = "127.0.0.1";
    standby_config.port = primary.port();
    standby_config.topologyHash = 7;
    standby_config.helloSeconds = 0.05;
    standby_config.ackSeconds = 0.01;
    standby_config.leaseSeconds = 0.8;
    standby_config.localIteration = [&] { return standby_iteration; };
    replica::StandbyClient standby(standby_config);

    uint64_t primary_iteration = 0;
    // The daemon's standby loop calls maybeAck() every pass; mirror
    // that, or the ack stream dries up after the first send.
    auto pump_both = [&](int rounds) {
        for (int i = 0; i < rounds; ++i) {
            standby.pump(0.01);
            standby.maybeAck();
            primary.poll(primary_iteration);
        }
    };

    pump_both(60);
    ASSERT_TRUE(standby.attached()) << standby.status();
    EXPECT_EQ(primary.standbyCount(), 1u);

    // Stream 20 records across several polls.
    std::vector<replica::WalRecord> applied;
    for (uint64_t seq = 1; seq <= 20; ++seq) {
        replica::WalRecord record;
        record.sequence = seq;
        record.iteration = seq;
        record.payload.assign(16, uint8_t(seq));
        primary.offer(record);
        primary_iteration = seq;
    }
    for (int round = 0; round < 200 && applied.size() < 20; ++round) {
        pump_both(1);
        while (const replica::WalRecord *record =
                   standby.nextApplicable()) {
            applied.push_back(*record);
            standby_iteration = record->iteration;
            standby.markApplied();
        }
        standby.maybeAck();
    }
    ASSERT_EQ(applied.size(), 20u);
    for (uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(applied[i].sequence, i + 1);
    EXPECT_EQ(standby.safeStepIteration(), 20u);
    EXPECT_FALSE(standby.leaseExpired());

    pump_both(40);
    EXPECT_EQ(primary.ackedSeq(), 20u);
    EXPECT_EQ(primary.standbyIteration(), 20u);

    // Matching state hashes: the standby echoes, the primary verifies.
    primary.noteHash(20, 0x5a5a5a5a);
    standby.noteLocalHash(20, 0x5a5a5a5a);
    for (int round = 0; round < 100 && primary.hashChecks() == 0;
         ++round) {
        pump_both(1);
        standby.maybeAck();
    }
    EXPECT_GE(primary.hashChecks(), 1u);
    EXPECT_EQ(primary.hashMismatches(), 0u);
    EXPECT_EQ(primary.lastHashVerdict(), 1);
}

/** The daemon offers a whole drain of records at once and polls once
 *  per drain. One poll must ship all of them, however many that is, or
 *  the standby falls further behind every drain. */
TEST(ReplicaLoopback, OnePollShipsEverythingOfferedSinceTheLast)
{
    replica::Replicator::Config primary_config;
    primary_config.heartbeatSeconds = 0.05;
    primary_config.leaseSeconds = 5.0;
    // No go-back-N rewind in this test: everything must go first time.
    primary_config.retransmitSeconds = 30.0;
    replica::Replicator primary(primary_config, 7, 0, 1);

    replica::StandbyClient::Config standby_config;
    standby_config.host = "127.0.0.1";
    standby_config.port = primary.port();
    standby_config.topologyHash = 7;
    standby_config.helloSeconds = 0.05;
    standby_config.ackSeconds = 0.0;
    standby_config.leaseSeconds = 5.0;
    standby_config.localIteration = [] { return uint64_t(0); };
    replica::StandbyClient standby(standby_config);
    for (int i = 0; i < 60 && !standby.attached(); ++i) {
        standby.pump(0.01);
        primary.poll(0);
    }
    ASSERT_TRUE(standby.attached()) << standby.status();

    // Well past the per-pass catch-up cap of 512 records.
    constexpr uint64_t kRecords = 1200;
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
        replica::WalRecord record;
        record.sequence = seq;
        record.iteration = 1;
        record.payload.assign(16, uint8_t(seq));
        primary.offer(record);
    }
    primary.poll(1);
    EXPECT_EQ(primary.recordsSent(), kRecords);

    // The standby receives every record without another primary poll.
    uint64_t applied = 0;
    for (int round = 0; round < 100 && applied < kRecords; ++round) {
        standby.pump(0.01);
        while (const replica::WalRecord *record =
                   standby.nextApplicable()) {
            EXPECT_EQ(record->sequence, applied + 1);
            standby.markApplied();
            ++applied;
        }
    }
    ASSERT_EQ(applied, kRecords);

    standby.maybeAck();
    for (int round = 0; round < 50 && primary.ackedSeq() < kRecords;
         ++round) {
        primary.poll(1);
        if (primary.ackedSeq() < kRecords)
            usleep(1000);
    }
    EXPECT_EQ(primary.ackedSeq(), kRecords);
    EXPECT_EQ(primary.recordsSent(), kRecords);
    EXPECT_EQ(primary.retransmits(), 0u);
}

/** A standby acks on a timer even while a lost datagram leaves a gap.
 *  Those acks must not hold off the go-back-N retransmit, or the gap
 *  never fills. The standby here is a bare socket that drops the first
 *  Records datagram and keeps acking sequence 0. */
TEST(ReplicaLoopback, AcksWithoutProgressDoNotHoldOffTheRetransmit)
{
    replica::Replicator::Config primary_config;
    primary_config.heartbeatSeconds = 0.05;
    primary_config.leaseSeconds = 5.0;
    primary_config.retransmitSeconds = 0.05;
    replica::Replicator primary(primary_config, 7, 0, 1);

    net::UdpSocket standby;
    standby.bind(0);
    net::Endpoint to{*net::resolveHost("127.0.0.1"), primary.port()};
    auto send = [&](const std::vector<uint8_t> &bytes) {
        ASSERT_TRUE(standby.sendTo(to, bytes.data(), bytes.size()));
    };
    // Drains the socket, waiting up to @p wait for the first datagram;
    // returns the sequences of the records received.
    auto receive = [&](double wait) {
        std::vector<uint64_t> sequences;
        uint8_t buffer[replica::kReplicaDatagramMax];
        net::Endpoint from;
        while (auto length = standby.recvFrom(buffer, sizeof(buffer),
                                              &from, wait)) {
            wait = 0.0;
            auto message = replica::decodeReplica(buffer, *length);
            if (!message)
                continue;
            if (const auto *records =
                    std::get_if<replica::ReplicaRecords>(&*message)) {
                for (const replica::WalRecord &record : records->records)
                    sequences.push_back(record.sequence);
            }
        }
        return sequences;
    };

    replica::ReplicaHello hello;
    hello.topologyHash = 7;
    send(replica::encodeReplica(hello));
    for (int i = 0; i < 500 && primary.standbyCount() == 0; ++i) {
        primary.poll(0);
        usleep(1000);
    }
    ASSERT_EQ(primary.standbyCount(), 1u);

    for (uint64_t seq = 1; seq <= 10; ++seq) {
        replica::WalRecord record;
        record.sequence = seq;
        record.iteration = 1;
        record.payload.assign(8, uint8_t(seq));
        primary.offer(record);
    }
    primary.poll(1);
    ASSERT_FALSE(receive(1.0).empty()); // "lost"

    // Ack sequence 0 every 10 ms, well inside the retransmit period.
    std::vector<uint64_t> resent;
    replica::ReplicaAck ack;
    for (int i = 0; i < 100 && resent.empty(); ++i) {
        send(replica::encodeReplica(ack));
        usleep(10000);
        primary.poll(1);
        resent = receive(0.0);
    }
    ASSERT_FALSE(resent.empty());
    EXPECT_EQ(resent.front(), 1u);
    EXPECT_GE(primary.retransmits(), 1u);
}

TEST(ReplicaLoopback, InactivePrimaryAndTopologyMismatchRefuse)
{
    replica::Replicator::Config primary_config;
    primary_config.heartbeatSeconds = 0.05;
    replica::Replicator primary(primary_config, 7, 0, 1);
    primary.setActive(false);

    replica::StandbyClient::Config standby_config;
    standby_config.host = "127.0.0.1";
    standby_config.port = primary.port();
    standby_config.topologyHash = 7;
    standby_config.helloSeconds = 0.02;
    standby_config.graceSeconds = 30.0;
    standby_config.localIteration = [] { return uint64_t(0); };
    replica::StandbyClient refused(standby_config);
    for (int i = 0; i < 50 && !refused.everContacted(); ++i) {
        refused.pump(0.01);
        primary.poll(0);
    }
    EXPECT_TRUE(refused.everContacted());
    EXPECT_FALSE(refused.attached());
    // An answering (if refusing) peer suppresses grace promotion:
    // promoting against a live not-yet-primary would split the brain.
    EXPECT_FALSE(refused.leaseExpired());

    primary.setActive(true);
    standby_config.topologyHash = 8; // wrong cluster
    replica::StandbyClient mismatched(standby_config);
    for (int i = 0; i < 50 && !mismatched.everContacted(); ++i) {
        mismatched.pump(0.01);
        primary.poll(0);
    }
    EXPECT_TRUE(mismatched.everContacted());
    EXPECT_FALSE(mismatched.attached());
}

// The WAL, its mutation payloads and every replication message, byte
// for byte. The formats are frozen: these bytes change only together
// with kWalVersion or kReplicaVersion.
TEST(GoldenBytes, WalAndReplicaFormatsAreBitIdentical)
{
    proto::UtilizationUpdate update;
    update.machine = "m1";
    update.component = "cpu";
    update.utilization = 0.625;
    update.sequence = 0x0102030405060708ull;
    update.backlog = 7;
    update.substituted = 1;
    EXPECT_EQ(hexOf(proto::encodeWalMutation(update)),
              "01026d3103637075000000000000e43f08070605040302010700000001");

    proto::FiddleRequest fiddle;
    fiddle.requestId = 7;
    fiddle.commandLine = "m1 utilization cpu 0.9";
    EXPECT_EQ(hexOf(proto::encodeWalMutation(fiddle)),
              "0407000000166d31207574696c697a6174696f6e2063707520302e39");

    replica::WalHeader header;
    header.topologyHash = 0x1122334455667788ull;
    header.startIteration = 1000;
    header.startSequence = 17;
    EXPECT_EQ(
        hexOf(replica::encodeWalHeader(header)),
        "4d574c31010000008877665544332211e8030000000000001100000000000000");

    replica::WalRecord record;
    record.sequence = 17;
    record.iteration = 1000;
    record.kind = replica::WalRecordKind::Mutation;
    record.payload = proto::encodeWalMutation(update);
    std::vector<uint8_t> record_bytes;
    replica::appendRecordBytes(record_bytes, record);
    EXPECT_EQ(hexOf(record_bytes),
              "c4cc1f8b01001d001100000000000000e80300000000000001026d3103637075"
              "000000000000e43f08070605040302010700000001");

    replica::WalRecord marker;
    marker.sequence = 18;
    marker.iteration = 1001;
    marker.kind = replica::WalRecordKind::CheckpointMarker;
    marker.payload = {3, 0, 0, 0, 0, 0, 0, 0};

    replica::ReplicaHello hello;
    hello.topologyHash = 0x1122334455667788ull;
    hello.lastAppliedSeq = 41;
    hello.standbyIteration = 12;
    EXPECT_EQ(
        hexOf(replica::encodeReplica(hello)),
        "4d52503101010000887766554433221129000000000000000c00000000000000");

    replica::ReplicaHelloAck hello_ack;
    hello_ack.status = replica::HelloStatus::HistoryUnavailable;
    hello_ack.primaryIteration = 500;
    hello_ack.baseIteration = 400;
    hello_ack.baseSequence = 33;
    hello_ack.nextSeq = 90;
    hello_ack.leaseSeconds = 2.5;
    hello_ack.hashIterations = 64;
    EXPECT_EQ(hexOf(replica::encodeReplica(hello_ack)),
              "4d5250310102000003f401000000000000900100000000000021000000000000"
              "005a00000000000000000000000000044040000000");

    replica::ReplicaRecords records;
    records.primaryIteration = 1001;
    records.nextSeq = 19;
    records.records = {record, marker};
    EXPECT_EQ(hexOf(replica::encodeReplica(records)),
              "4d52503101030000e90300000000000013000000000000000200c4cc1f8b0100"
              "1d001100000000000000e80300000000000001026d3103637075000000000000"
              "e43f08070605040302010700000001261295e7020008001200000000000000e9"
              "030000000000000300000000000000");

    replica::ReplicaAck ack;
    ack.contiguousSeq = 20;
    ack.appliedSeq = 19;
    ack.standbyIteration = 18;
    ack.hashIteration = 16;
    ack.stateHash = 0xdeadbeefcafef00dull;
    ack.hashValid = 1;
    EXPECT_EQ(hexOf(replica::encodeReplica(ack)),
              "4d52503101040000140000000000000013000000000000001200000000000000"
              "10000000000000000df0fecaefbeadde01");

    replica::ReplicaHeartbeat heartbeat;
    heartbeat.primaryIteration = 1234;
    heartbeat.nextSeq = 55;
    heartbeat.leaseSeconds = 1.5;
    heartbeat.hashIteration = 1216;
    heartbeat.stateHash = 0x0123456789abcdefull;
    EXPECT_EQ(hexOf(replica::encodeReplica(heartbeat)),
              "4d52503101050000d2040000000000003700000000000000000000000000f83f"
              "c004000000000000efcdab896745230100");
}

TEST(GoldenBytes, KnownTopologyAndStateHashes)
{
    core::Solver single;
    single.addMachine(core::table1Server("m1"));
    EXPECT_EQ(state::topologyHash(single), 0x9d54215b1cbc9078ull);

    core::Solver cluster;
    std::vector<std::string> names = {"m1", "m2"};
    for (const std::string &name : names)
        cluster.addMachine(core::table1Server(name));
    cluster.setRoom(core::table1Room(names, 21.6));
    EXPECT_EQ(state::topologyHash(cluster), 0x1c007f5c72071e32ull);

    // Exact state, set rather than integrated, so the hash pins the
    // accumulator and not the solver's arithmetic.
    core::ThermalGraph &machine = single.machine("m1");
    std::vector<double> temperatures(machine.nodeCount());
    for (size_t i = 0; i < temperatures.size(); ++i)
        temperatures[i] = 20.0 + 0.5 * double(i);
    machine.setTemperatures(temperatures);
    machine.restoreEnergyConsumed(4321.25);
    single.restoreIterationCount(77);
    ASSERT_EQ(machine.nodeCount(), 14u);
    EXPECT_EQ(replica::stateHash(single), 0x82800fd605219d09ull);
}

TEST(StateHash, TracksBitwiseState)
{
    core::Solver a(testSolverConfig());
    core::Solver b(testSolverConfig());
    addServer(a);
    addServer(b);
    EXPECT_EQ(replica::stateHash(a), replica::stateHash(b));

    for (int i = 0; i < 10; ++i) {
        a.iterate();
        b.iterate();
    }
    EXPECT_EQ(replica::stateHash(a), replica::stateHash(b));

    b.setUtilization("server", "cpu", 0.9);
    b.iterate();
    a.iterate();
    EXPECT_NE(replica::stateHash(a), replica::stateHash(b));
}

} // namespace
} // namespace mercury
