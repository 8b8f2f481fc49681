/**
 * @file
 * Crash-consistent checkpointing: codec round trips, paranoid decode
 * of corrupt/truncated files, fault-injected atomic writes, topology
 * guards, manager policy, and bitwise-identical trace resume.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/solver.hh"
#include "core/trace.hh"
#include "fiddle/command.hh"
#include "state/checkpoint.hh"
#include "util/crc32c.hh"
#include "util/fileio.hh"

namespace mercury {
namespace {

std::string
tempPath(const std::string &tag)
{
    return "/tmp/mercury_checkpoint_test." + tag + "." +
           std::to_string(::getpid());
}

/** A cluster solver with plenty of mutable state to snapshot. */
void
buildClusterSolver(core::Solver &solver)
{
    std::vector<std::string> names = {"m1", "m2", "m3"};
    for (const std::string &name : names)
        solver.addMachine(core::table1Server(name));
    solver.setRoom(core::table1Room(names, 21.6));
}

/** Mutate everything a long fiddle-heavy run would have touched. */
void
perturbSolver(core::Solver &solver)
{
    solver.setUtilization("m1", "cpu", 0.83);
    solver.setUtilization("m2", "cpu", 0.41);
    solver.setUtilization("m1", "disk_platters", 0.27);
    solver.run(500.0);

    core::ThermalGraph &m1 = solver.machine("m1");
    m1.setFanCfm(m1.fanCfm() * 1.5);
    m1.setHeatK(0, m1.heatEdge(0).k * 1.2);
    m1.pinTemperature("disk_shell", 44.0);
    fiddle::FiddleResult emergency =
        fiddle::applyLine(solver, "fiddle m2 temperature inlet 33.5");
    ASSERT_TRUE(emergency.ok) << emergency.message;
    solver.run(250.0);
}

void
expectSolversBitwiseEqual(core::Solver &a, core::Solver &b)
{
    ASSERT_EQ(a.iterations(), b.iterations());
    for (const std::string &name : a.machineNames()) {
        core::ThermalGraph &ga = a.machine(name);
        core::ThermalGraph &gb = b.machine(name);
        for (const std::string &node : ga.nodeNames()) {
            EXPECT_EQ(ga.temperature(node), gb.temperature(node))
                << name << "." << node;
        }
        EXPECT_EQ(ga.fanCfm(), gb.fanCfm()) << name;
        EXPECT_EQ(ga.energyConsumed(), gb.energyConsumed()) << name;
    }
}

TEST(CheckpointCodec, RoundTripPreservesEveryField)
{
    core::Solver solver;
    buildClusterSolver(solver);
    perturbSolver(solver);

    state::Checkpoint checkpoint = state::captureSolver(solver);
    checkpoint.saveCount = 7;
    checkpoint.senders.push_back(
        {"m1", true, 900, 1000, 950, 40, 7, 3, 12});

    std::vector<uint8_t> bytes = state::encodeCheckpoint(checkpoint);
    state::Checkpoint decoded;
    std::string error;
    ASSERT_TRUE(state::decodeCheckpoint(bytes.data(), bytes.size(),
                                        &decoded, &error))
        << error;

    EXPECT_EQ(decoded.iterations, checkpoint.iterations);
    EXPECT_EQ(decoded.iterationSeconds, checkpoint.iterationSeconds);
    EXPECT_EQ(decoded.topologyHash, checkpoint.topologyHash);
    EXPECT_EQ(decoded.saveCount, 7u);
    ASSERT_EQ(decoded.machines.size(), checkpoint.machines.size());
    for (size_t i = 0; i < decoded.machines.size(); ++i) {
        const state::MachineState &got = decoded.machines[i];
        const state::MachineState &want = checkpoint.machines[i];
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.temperatures, want.temperatures);
        EXPECT_EQ(got.pinned, want.pinned);
        EXPECT_EQ(got.pinValues, want.pinValues);
        EXPECT_EQ(got.heatKs, want.heatKs);
        EXPECT_EQ(got.airFractions, want.airFractions);
        EXPECT_EQ(got.fanCfm, want.fanCfm);
        EXPECT_EQ(got.energyConsumed, want.energyConsumed);
        ASSERT_EQ(got.powered.size(), want.powered.size());
        for (size_t j = 0; j < got.powered.size(); ++j) {
            EXPECT_EQ(got.powered[j].id, want.powered[j].id);
            EXPECT_EQ(got.powered[j].utilization,
                      want.powered[j].utilization);
            EXPECT_EQ(got.powered[j].basePower,
                      want.powered[j].basePower);
            EXPECT_EQ(got.powered[j].maxPower, want.powered[j].maxPower);
        }
    }
    ASSERT_TRUE(decoded.room.has_value());
    EXPECT_EQ(decoded.room->sources, checkpoint.room->sources);
    EXPECT_EQ(decoded.room->edgeFractions,
              checkpoint.room->edgeFractions);
    EXPECT_EQ(decoded.room->inletOverrides,
              checkpoint.room->inletOverrides);
    ASSERT_EQ(decoded.senders.size(), 1u);
    EXPECT_EQ(decoded.senders[0].machine, "m1");
    EXPECT_TRUE(decoded.senders[0].started);
    EXPECT_EQ(decoded.senders[0].head, 900u);
    EXPECT_EQ(decoded.senders[0].lost, 40u);
    EXPECT_EQ(decoded.senders[0].lastBacklog, 12u);
}

TEST(CheckpointCodec, RestoreReproducesTheSolverBitwise)
{
    core::Solver original;
    buildClusterSolver(original);
    perturbSolver(original);
    state::Checkpoint checkpoint = state::captureSolver(original);

    core::Solver restored;
    buildClusterSolver(restored);
    std::string error;
    ASSERT_TRUE(state::restoreSolver(restored, checkpoint, &error))
        << error;
    expectSolversBitwiseEqual(original, restored);

    // The restored solver must also *evolve* identically: same inputs,
    // same trajectory.
    original.run(300.0);
    restored.run(300.0);
    expectSolversBitwiseEqual(original, restored);
}

TEST(CheckpointCodec, CorruptAndTruncatedFilesAreRejectedNotCrashed)
{
    core::Solver solver;
    buildClusterSolver(solver);
    perturbSolver(solver);
    std::vector<uint8_t> bytes =
        state::encodeCheckpoint(state::captureSolver(solver));

    state::Checkpoint out;
    std::string error;

    // Every truncation point of the header plus a seeded spread of
    // payload truncations.
    for (size_t size = 0; size < 64 && size < bytes.size(); ++size) {
        EXPECT_FALSE(
            state::decodeCheckpoint(bytes.data(), size, &out, &error))
            << "truncated to " << size;
        EXPECT_FALSE(error.empty());
    }
    std::mt19937 rng(20060310); // the paper's conference date
    std::uniform_int_distribution<size_t> cut(64, bytes.size() - 1);
    for (int round = 0; round < 200; ++round) {
        size_t size = cut(rng);
        EXPECT_FALSE(
            state::decodeCheckpoint(bytes.data(), size, &out, &error))
            << "truncated to " << size;
    }

    // Seeded single-byte corruption all over the file: magic, version,
    // length, CRC, payload. decode must reject (the CRC catches the
    // payload; field checks catch the header).
    std::uniform_int_distribution<size_t> at(0, bytes.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int round = 0; round < 500; ++round) {
        std::vector<uint8_t> bad = bytes;
        bad[at(rng)] ^= static_cast<uint8_t>(1 << bit(rng));
        state::Checkpoint ignored;
        state::decodeCheckpoint(bad.data(), bad.size(), &ignored,
                                &error); // must not crash
    }
    std::vector<uint8_t> flipped = bytes;
    flipped[bytes.size() / 2] ^= 0xff; // payload byte: CRC must catch
    EXPECT_FALSE(state::decodeCheckpoint(flipped.data(), flipped.size(),
                                         &out, &error));

    // Garbage that was never a checkpoint.
    std::vector<uint8_t> garbage(4096);
    for (uint8_t &byte : garbage)
        byte = static_cast<uint8_t>(rng());
    EXPECT_FALSE(state::decodeCheckpoint(garbage.data(), garbage.size(),
                                         &out, &error));

    // Trailing junk after a valid payload.
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(state::decodeCheckpoint(padded.data(), padded.size(),
                                         &out, &error));
}

TEST(CheckpointCodec, VersionAndMagicMismatchAreRejected)
{
    core::Solver solver;
    buildClusterSolver(solver);
    std::vector<uint8_t> bytes =
        state::encodeCheckpoint(state::captureSolver(solver));
    state::Checkpoint out;
    std::string error;

    std::vector<uint8_t> wrong_magic = bytes;
    wrong_magic[0] ^= 0xff;
    EXPECT_FALSE(state::decodeCheckpoint(
        wrong_magic.data(), wrong_magic.size(), &out, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    std::vector<uint8_t> future = bytes;
    future[4] = 0xfe; // version field, little-endian
    EXPECT_FALSE(state::decodeCheckpoint(future.data(), future.size(),
                                         &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// A small checkpoint, byte for byte. The format is frozen at version
// 2: these bytes change only together with kCheckpointVersion.
TEST(CheckpointCodec, GoldenBytesAreBitIdentical)
{
    state::Checkpoint checkpoint;
    checkpoint.iterations = 12345;
    checkpoint.iterationSeconds = 0.5;
    checkpoint.topologyHash = 0xfeedfacecafebeefull;
    checkpoint.saveCount = 3;
    state::MachineState machine;
    machine.name = "m1";
    machine.temperatures = {21.6, 45.25};
    machine.pinned = {0, 1};
    machine.pinValues = {0.0, 44.0};
    machine.powered = {{1, 0.75, 7.0, 31.0}};
    machine.heatKs = {0.75};
    machine.airFractions = {1.0};
    machine.fanCfm = 38.6;
    machine.energyConsumed = 1234.5;
    checkpoint.machines.push_back(machine);
    state::RoomState room;
    room.sources = {{"ac", 18.0}};
    room.edgeFractions = {0.5, 0.5};
    room.inletOverrides = {{"m1", 33.5}};
    checkpoint.room = room;
    state::SenderRecord sender;
    sender.machine = "m1";
    sender.started = true;
    sender.head = 100;
    sender.window = 0xff;
    sender.received = 98;
    sender.lost = 2;
    sender.duplicates = 1;
    sender.reordered = 4;
    sender.lastBacklog = 6;
    checkpoint.senders.push_back(sender);

    std::vector<uint8_t> bytes = state::encodeCheckpoint(checkpoint);
    static const char digits[] = "0123456789abcdef";
    std::string hex;
    for (uint8_t byte : bytes) {
        hex += digits[byte >> 4];
        hex += digits[byte & 0xf];
    }
    EXPECT_EQ(hex,
              "4d434b3102000000140100000000000061c654cf000000003930000000000000"
              "000000000000e03fefbefecacefaedfe03000000000000000100000002000000"
              "6d31020000009a999999999935400000000000a0464000010000000000000000"
              "0000000000004640010000000100000000000000000000000000e83f00000000"
              "00001c400000000000003f4001000000000000000000e83f0100000000000000"
              "0000f03fcdcccccccc4c434000000000004a9340010100000002000000616300"
              "0000000000324002000000000000000000e03f000000000000e03f0100000002"
              "0000006d310000000000c0404001000000020000006d31016400000000000000"
              "ff00000000000000620000000000000002000000000000000100000000000000"
              "040000000000000006000000");

    state::Checkpoint decoded;
    std::string error;
    ASSERT_TRUE(state::decodeCheckpoint(bytes.data(), bytes.size(),
                                        &decoded, &error))
        << error;
    EXPECT_EQ(state::encodeCheckpoint(decoded), bytes);
}

/** The small checkpoint of GoldenBytesAreBitIdentical, minus its
 *  sender: every field valid, a room included. */
state::Checkpoint
smallCheckpoint()
{
    state::Checkpoint checkpoint;
    checkpoint.iterations = 12345;
    checkpoint.iterationSeconds = 0.5;
    checkpoint.topologyHash = 0xfeedfacecafebeefull;
    checkpoint.saveCount = 3;
    state::MachineState machine;
    machine.name = "m1";
    machine.temperatures = {21.6, 45.25};
    machine.pinned = {0, 1};
    machine.pinValues = {0.0, 44.0};
    machine.powered = {{1, 0.75, 7.0, 31.0}};
    machine.heatKs = {0.75};
    machine.airFractions = {1.0};
    machine.fanCfm = 38.6;
    machine.energyConsumed = 1234.5;
    checkpoint.machines.push_back(machine);
    state::RoomState room;
    room.sources = {{"ac", 18.0}};
    room.edgeFractions = {0.5, 0.5};
    room.inletOverrides = {{"m1", 33.5}};
    checkpoint.room = room;
    return checkpoint;
}

/** Set byte @p offset of an encoded checkpoint and re-seal its CRC,
 *  as a writer that meant it would. */
void
patchByte(std::vector<uint8_t> &bytes, size_t offset, uint8_t value)
{
    constexpr size_t kHeaderBytes = 24;
    bytes.at(offset) = value;
    uint32_t crc =
        crc32c(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
    for (size_t i = 0; i < 4; ++i)
        bytes[16 + i] = static_cast<uint8_t>(crc >> (8 * i));
}

// The CRC rejects a scribbled file before any field check runs, so
// these cases write hostile values through the encoder (which does not
// validate) and reach each check behind the CRC.
TEST(CheckpointCodec, HostileFieldsFailTheirNamedCheck)
{
    struct Case
    {
        const char *error;
        std::function<void(state::Checkpoint &)> set;
    };
    const Case cases[] = {
        {"non-positive iteration period",
         [](state::Checkpoint &c) { c.iterationSeconds = 0.0; }},
        {"non-positive iteration period",
         [](state::Checkpoint &c) { c.iterationSeconds = -1.0; }},
        {"utilization outside [0, 1]",
         [](state::Checkpoint &c) {
             c.machines[0].powered[0].utilization = 1.5;
         }},
        {"utilization outside [0, 1]",
         [](state::Checkpoint &c) {
             c.machines[0].powered[0].utilization = -0.25;
         }},
        {"powered id out of range",
         [](state::Checkpoint &c) { c.machines[0].powered[0].id = 2; }},
        {"non-positive heat k",
         [](state::Checkpoint &c) { c.machines[0].heatKs[0] = 0.0; }},
        {"non-positive heat k",
         [](state::Checkpoint &c) { c.machines[0].heatKs[0] = -3.0; }},
        {"air fraction outside [0, 1]",
         [](state::Checkpoint &c) { c.machines[0].airFractions[0] = 1.01; }},
        {"air fraction outside [0, 1]",
         [](state::Checkpoint &c) { c.machines[0].airFractions[0] = -0.5; }},
        {"room fraction outside [0, 1]",
         [](state::Checkpoint &c) { c.room->edgeFractions[1] = 2.0; }},
        {"room fraction outside [0, 1]",
         [](state::Checkpoint &c) { c.room->edgeFractions[0] = -0.1; }},
        {"negative fan flow",
         [](state::Checkpoint &c) { c.machines[0].fanCfm = -1.0; }},
    };
    state::Checkpoint valid = smallCheckpoint();
    state::Checkpoint out;
    std::string error;
    {
        std::vector<uint8_t> bytes = state::encodeCheckpoint(valid);
        ASSERT_TRUE(state::decodeCheckpoint(bytes.data(), bytes.size(),
                                            &out, &error))
            << error;
    }
    for (const Case &c : cases) {
        state::Checkpoint hostile = valid;
        c.set(hostile);
        std::vector<uint8_t> bytes = state::encodeCheckpoint(hostile);
        error.clear();
        EXPECT_FALSE(state::decodeCheckpoint(bytes.data(), bytes.size(),
                                             &out, &error))
            << c.error;
        EXPECT_NE(error.find(c.error), std::string::npos)
            << "want \"" << c.error << "\", got \"" << error << "\"";
    }

    // The 0/1 flags: the encoder only writes 0 or 1, so patch the byte.
    // Offsets follow the layout: a 24-byte header, four u64 fields, the
    // machine count, then machine 0's name, node count, temperatures
    // and pinned bytes; the room flag after the machines; a sender's
    // started flag ahead of its six u64 counters and u32 backlog.
    state::Checkpoint with_sender = valid;
    with_sender.senders.push_back({"m1", true, 100, 0xff, 98, 2, 1, 4, 6});
    const state::MachineState &m0 = valid.machines[0];
    const size_t pinned_at =
        24 + 32 + 4 + 4 + m0.name.size() + 4 + 8 * m0.temperatures.size();
    state::Checkpoint bare = valid;
    bare.room.reset();
    const size_t room_flag_at = state::encodeCheckpoint(bare).size() - 5;
    const std::vector<uint8_t> base = state::encodeCheckpoint(with_sender);
    const size_t started_at = base.size() - (6 * 8 + 4) - 1;
    ASSERT_EQ(base.at(pinned_at + 1), 1); // node 1 is pinned
    ASSERT_EQ(base.at(room_flag_at), 1);
    ASSERT_EQ(base.at(started_at), 1);
    const std::pair<size_t, const char *> flags[] = {
        {pinned_at, "pinned flag not 0/1"},
        {pinned_at + 1, "pinned flag not 0/1"},
        {room_flag_at, "room flag not 0/1"},
        {started_at, "sender started flag not 0/1"},
    };
    for (const auto &[offset, want] : flags) {
        std::vector<uint8_t> bytes = base;
        patchByte(bytes, offset, 2);
        error.clear();
        EXPECT_FALSE(state::decodeCheckpoint(bytes.data(), bytes.size(),
                                             &out, &error))
            << want;
        EXPECT_NE(error.find(want), std::string::npos)
            << "want \"" << want << "\", got \"" << error << "\"";
    }
}

TEST(CheckpointRestore, EveryRefusalLeavesTheSolverUntouched)
{
    core::Solver source;
    buildClusterSolver(source);
    perturbSolver(source);
    const state::Checkpoint valid = state::captureSolver(source);
    ASSERT_FALSE(valid.room->sources.empty());

    // The target runs a different history, so a partial restore would
    // show in its bytes.
    core::Solver target;
    buildClusterSolver(target);
    target.setUtilization("m3", "cpu", 0.66);
    target.run(120.0);
    const std::vector<uint8_t> before =
        state::encodeCheckpoint(state::captureSolver(target));

    struct Case
    {
        const char *error;
        std::function<void(state::Checkpoint &)> set;
    };
    const Case cases[] = {
        {"iteration period mismatch",
         [](state::Checkpoint &c) { c.iterationSeconds = 2.0; }},
        {"machine count mismatch",
         [](state::Checkpoint &c) { c.machines.pop_back(); }},
        {"machine name mismatch",
         [](state::Checkpoint &c) { c.machines[1].name = "m9"; }},
        {"shape mismatch",
         [](state::Checkpoint &c) { c.machines[2].heatKs.pop_back(); }},
        {"powered-node mismatch",
         [](state::Checkpoint &c) { c.machines[0].powered[0].id += 1; }},
        {"room presence mismatch",
         [](state::Checkpoint &c) { c.room.reset(); }},
        {"room edge count mismatch",
         [](state::Checkpoint &c) { c.room->edgeFractions.push_back(1.0); }},
        {"unknown room source",
         [](state::Checkpoint &c) { c.room->sources[0].first = "m1"; }},
        {"unknown override machine",
         [](state::Checkpoint &c) {
             c.room->inletOverrides.emplace_back("ac", 30.0);
         }},
    };
    for (const Case &c : cases) {
        state::Checkpoint hostile = valid;
        c.set(hostile);
        std::string error;
        EXPECT_FALSE(state::restoreSolver(target, hostile, &error))
            << c.error;
        EXPECT_NE(error.find(c.error), std::string::npos)
            << "want \"" << c.error << "\", got \"" << error << "\"";
        EXPECT_EQ(state::encodeCheckpoint(state::captureSolver(target)),
                  before)
            << "the solver moved on a refused restore (" << c.error
            << ")";
    }
    std::string error;
    EXPECT_TRUE(state::restoreSolver(target, valid, &error)) << error;
}

TEST(CheckpointRestore, TopologyMismatchLeavesSolverUntouched)
{
    core::Solver cluster;
    buildClusterSolver(cluster);
    perturbSolver(cluster);
    state::Checkpoint checkpoint = state::captureSolver(cluster);

    core::Solver other;
    other.addMachine(core::table1Server("m1"));
    other.setUtilization("m1", "cpu", 0.5);
    other.run(100.0);
    state::Checkpoint before = state::captureSolver(other);

    std::string error;
    EXPECT_FALSE(state::restoreSolver(other, checkpoint, &error));
    EXPECT_NE(error.find("topology"), std::string::npos) << error;

    // Nothing about the rejected solver moved.
    state::Checkpoint after = state::captureSolver(other);
    EXPECT_EQ(after.iterations, before.iterations);
    ASSERT_EQ(after.machines.size(), before.machines.size());
    EXPECT_EQ(after.machines[0].temperatures,
              before.machines[0].temperatures);
}

TEST(CheckpointFile, CrashAtAnyWriteStageNeverLosesTheLastGoodFile)
{
    std::string path = tempPath("faults");
    core::Solver solver;
    buildClusterSolver(solver);
    perturbSolver(solver);

    // Seed a good checkpoint.
    std::string error;
    state::Checkpoint first = state::captureSolver(solver);
    first.saveCount = 1;
    ASSERT_TRUE(state::saveCheckpointFile(path, first, &error)) << error;

    solver.run(100.0);
    state::Checkpoint second = state::captureSolver(solver);
    second.saveCount = 2;

    for (int stage = 1; stage <= 3; ++stage) {
        setAtomicWriteFaultStageForTest(stage);
        EXPECT_FALSE(state::saveCheckpointFile(path, second, &error))
            << "stage " << stage;
        setAtomicWriteFaultStageForTest(0);

        // The previous complete checkpoint is still there, valid.
        state::Checkpoint loaded;
        ASSERT_TRUE(state::loadCheckpointFile(path, &loaded, &error))
            << "stage " << stage << ": " << error;
        EXPECT_EQ(loaded.saveCount, 1u) << "stage " << stage;
        EXPECT_EQ(loaded.iterations, first.iterations)
            << "stage " << stage;
    }

    // With the fault gone the new state lands.
    ASSERT_TRUE(state::saveCheckpointFile(path, second, &error)) << error;
    state::Checkpoint loaded;
    ASSERT_TRUE(state::loadCheckpointFile(path, &loaded, &error)) << error;
    EXPECT_EQ(loaded.saveCount, 2u);
    EXPECT_EQ(loaded.iterations, second.iterations);

    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(CheckpointFile, TruncatedAndScribbledFilesAreRejectedOnLoad)
{
    std::string path = tempPath("corrupt");
    core::Solver solver;
    buildClusterSolver(solver);
    std::string error;
    ASSERT_TRUE(state::saveCheckpointFile(
        path, state::captureSolver(solver), &error))
        << error;

    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();

    state::Checkpoint out;
    auto rewrite = [&](const std::vector<char> &content) {
        std::ofstream replace(path, std::ios::binary | std::ios::trunc);
        replace.write(content.data(),
                      static_cast<std::streamsize>(content.size()));
    };

    std::vector<char> truncated(bytes.begin(),
                                bytes.begin() + bytes.size() / 3);
    rewrite(truncated);
    EXPECT_FALSE(state::loadCheckpointFile(path, &out, &error));
    EXPECT_FALSE(error.empty());

    std::vector<char> scribbled = bytes;
    scribbled[scribbled.size() - 5] ^= 0x40;
    rewrite(scribbled);
    EXPECT_FALSE(state::loadCheckpointFile(path, &out, &error));

    rewrite({});
    EXPECT_FALSE(state::loadCheckpointFile(path, &out, &error));

    EXPECT_FALSE(
        state::loadCheckpointFile(path + ".does-not-exist", &out, &error));

    std::remove(path.c_str());
}

TEST(CheckpointManager, SavesRestoresAndCarriesTheSaveCount)
{
    std::string path = tempPath("manager");
    std::remove(path.c_str());
    {
        core::Solver solver;
        buildClusterSolver(solver);
        state::CheckpointManager manager(solver, {path, 0.0});
        EXPECT_FALSE(manager.restoreAtBoot()); // nothing to restore
        EXPECT_FALSE(manager.restored());
        EXPECT_LT(manager.lastSaveAgeSeconds(), 0.0);

        perturbSolver(solver);
        std::string error;
        ASSERT_TRUE(manager.saveNow(&error)) << error;
        ASSERT_TRUE(manager.saveNow(&error)) << error;
        EXPECT_EQ(manager.saveCount(), 2u);
        EXPECT_GE(manager.lastSaveAgeSeconds(), 0.0);
    }
    {
        core::Solver solver;
        buildClusterSolver(solver);
        state::CheckpointManager manager(solver, {path, 0.0});
        std::vector<state::SenderRecord> imported;
        manager.setSenderImporter(
            [&](const std::vector<state::SenderRecord> &records) {
                imported = records;
            });
        ASSERT_TRUE(manager.restoreAtBoot());
        EXPECT_TRUE(manager.restored());
        EXPECT_EQ(manager.lastRestoreIteration(), solver.iterations());
        EXPECT_GT(solver.iterations(), 0u);

        // saveCount continues monotonically across the restart.
        std::string error;
        ASSERT_TRUE(manager.saveNow(&error)) << error;
        EXPECT_EQ(manager.saveCount(), 3u);
    }
    std::remove(path.c_str());
}

TEST(CheckpointManager, ReusedSavesEqualAFreshEncode)
{
    std::string path = tempPath("reuse");
    core::Solver solver;
    buildClusterSolver(solver);
    state::CheckpointManager manager(solver, {path, 0.0});
    EXPECT_EQ(manager.topologyHash(), state::topologyHash(solver));

    // The sender table grows and shrinks between saves too.
    std::vector<state::SenderRecord> senders;
    manager.setSenderExporter(
        [&](std::vector<state::SenderRecord> &out) { out = senders; });

    auto save_and_compare = [&](const char *step) {
        std::string error;
        ASSERT_TRUE(manager.saveNow(&error)) << step << ": " << error;
        state::Checkpoint want = state::captureSolver(solver);
        want.saveCount = manager.saveCount();
        want.senders = senders;
        std::vector<uint8_t> file;
        ASSERT_TRUE(readFileBytes(path, 1u << 24, &file, &error))
            << step << ": " << error;
        EXPECT_EQ(file, state::encodeCheckpoint(want)) << step;
    };

    solver.setUtilization("m1", "cpu", 0.7);
    solver.run(30.0);
    save_and_compare("first save");

    fiddle::FiddleResult override =
        fiddle::applyLine(solver, "fiddle m2 temperature inlet 31.5");
    ASSERT_TRUE(override.ok) << override.message;
    senders.push_back({"m1", true, 900, 1000, 950, 40, 7, 3, 12});
    solver.run(5.0);
    save_and_compare("inlet override");

    solver.machine("m3").pinTemperature("disk_shell", 41.0);
    senders.push_back({"m2-with-a-long-machine-name", false, 0, 0, 0, 0,
                       0, 0, 0});
    solver.run(5.0);
    save_and_compare("pin");

    core::ThermalGraph &m1 = solver.machine("m1");
    m1.setFanCfm(m1.fanCfm() * 1.25);
    m1.setHeatK(1, m1.heatEdge(1).k * 0.8);
    solver.run(5.0);
    save_and_compare("fan and k");

    solver.room().setInletOverride("m2", std::nullopt);
    solver.machine("m3").unpinTemperature("disk_shell");
    senders.erase(senders.begin());
    solver.run(5.0);
    save_and_compare("override and pin removed");
    EXPECT_EQ(manager.saveCount(), 5u);
    std::remove(path.c_str());
}

TEST(CheckpointCapture, OverridesFollowTheSolversMachineOrder)
{
    // The room lists its machines in the reverse of the solver's order;
    // the file keeps the solver's.
    core::Solver solver;
    for (const char *name : {"m1", "m2", "m3"})
        solver.addMachine(core::table1Server(name));
    solver.setRoom(core::table1Room({"m3", "m2", "m1"}, 21.6));
    solver.room().setInletOverride("m3", 30.0);
    solver.room().setInletOverride("m1", 27.0);

    state::Checkpoint checkpoint = state::captureSolver(solver);
    using Override = std::pair<std::string, double>;
    EXPECT_EQ(checkpoint.room->inletOverrides,
              (std::vector<Override>{{"m1", 27.0}, {"m3", 30.0}}));

    // The in-place capture overwrites what an earlier one left.
    solver.room().setInletOverride("m1", std::nullopt);
    state::captureSolver(solver, checkpoint.topologyHash, &checkpoint);
    EXPECT_EQ(checkpoint.room->inletOverrides,
              (std::vector<Override>{{"m3", 30.0}}));
    EXPECT_EQ(state::encodeCheckpoint(checkpoint),
              state::encodeCheckpoint(state::captureSolver(solver)));
}

TEST(TraceResume, InterruptedRunContinuesBitwise)
{
    core::UtilizationTrace trace;
    for (int t = 0; t <= 400; t += 10) {
        double load = 0.2 + 0.6 * (0.5 + 0.5 * std::sin(t / 60.0));
        trace.add(t, "m1", "cpu", load);
        trace.add(t, "m1", "disk_platters", load * 0.4);
    }

    // Reference: one uninterrupted run.
    core::Solver reference;
    reference.addMachine(core::table1Server("m1"));
    core::TraceRunner full(reference, trace);
    full.record("m1", "cpu");
    full.record("m1", "disk_shell");
    full.run();

    // Interrupted: run 150 s, checkpoint, "crash", restore, resume.
    std::string path = tempPath("resume");
    core::Solver before;
    before.addMachine(core::table1Server("m1"));
    core::TraceRunner head(before, trace);
    head.record("m1", "cpu");
    head.record("m1", "disk_shell");
    head.run(150.0);
    std::string error;
    ASSERT_TRUE(state::saveCheckpointFile(
        path, state::captureSolver(before), &error))
        << error;

    core::Solver after;
    after.addMachine(core::table1Server("m1"));
    state::Checkpoint checkpoint;
    ASSERT_TRUE(state::loadCheckpointFile(path, &checkpoint, &error))
        << error;
    ASSERT_TRUE(state::restoreSolver(after, checkpoint, &error)) << error;
    core::TraceRunner tail(after, trace);
    tail.record("m1", "cpu");
    tail.record("m1", "disk_shell");
    tail.run();

    // head + tail must equal the reference series *bitwise*.
    for (const char *component : {"cpu", "disk_shell"}) {
        const TimeSeries &want = full.series("m1", component);
        const TimeSeries &got_head = head.series("m1", component);
        const TimeSeries &got_tail = tail.series("m1", component);
        ASSERT_EQ(got_head.size() + got_tail.size(), want.size())
            << component;
        for (size_t i = 0; i < got_head.size(); ++i) {
            EXPECT_EQ(got_head.timeAt(i), want.timeAt(i)) << component;
            EXPECT_EQ(got_head.valueAt(i), want.valueAt(i))
                << component << " @ " << want.timeAt(i);
        }
        for (size_t i = 0; i < got_tail.size(); ++i) {
            size_t j = got_head.size() + i;
            EXPECT_EQ(got_tail.timeAt(i), want.timeAt(j)) << component;
            EXPECT_EQ(got_tail.valueAt(i), want.valueAt(j))
                << component << " @ " << want.timeAt(j);
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace mercury
