/**
 * @file
 * A periodic checkpoint save of an unchanged fleet allocates nothing
 * per machine or per sender.
 *
 * This binary replaces the global operator new with a counting one, so
 * it is kept apart from the other tests (like des_alloc_test). It
 * builds a 1024-machine room whose machine names are too long for the
 * short-string buffer, captures and encodes it once, and then counts
 * the heap allocations of a second capture and encode into the same
 * Checkpoint and buffer, and of a second CheckpointManager save that
 * also exports a SolverService's table of 1024 senders.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/solver.hh"
#include "core/spec.hh"
#include "proto/messages.hh"
#include "proto/solver_service.hh"
#include "state/checkpoint.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line: inlined into a new-expression's cleanup, the free()
// would draw GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mercury {
namespace {

constexpr size_t kMachines = 1024;

/** Allocations made by @p fn. */
template <typename Fn>
uint64_t
countAllocations(Fn fn)
{
    allocations = 0;
    counting = true;
    fn();
    counting = false;
    return allocations.load();
}

/** A room of kMachines servers with heap-sized names, one of them
 *  with an inlet override, warmed past its first iterations. */
void
buildFleet(core::Solver &solver)
{
    std::vector<std::string> names;
    for (size_t i = 0; i < kMachines; ++i)
        names.push_back("rack" + std::to_string(i / 32) +
                        "-server-node-" + std::to_string(i));
    for (const std::string &name : names)
        solver.addMachine(core::table1Server(name));
    solver.setRoom(core::table1Room(names, 18.0));
    for (size_t i = 0; i < names.size(); i += 3)
        solver.setUtilization(names[i], "cpu", 0.9);
    solver.room().setInletOverride(names[7], 30.0);
    solver.run(3.0);
}

TEST(CheckpointAlloc, SecondCaptureAndEncodeAllocateNothing)
{
    core::Solver solver;
    buildFleet(solver);
    // Past the short-string buffer: a rebuilt name would allocate.
    ASSERT_GT(solver.machine(0).name().size(), std::string().capacity());

    const uint64_t hash = state::topologyHash(solver);
    state::Checkpoint checkpoint;
    std::vector<uint8_t> bytes;
    uint64_t first = countAllocations([&] {
        state::captureSolver(solver, hash, &checkpoint);
        state::encodeCheckpoint(checkpoint, &bytes);
    });
    uint64_t second = countAllocations([&] {
        state::captureSolver(solver, hash, &checkpoint);
        state::encodeCheckpoint(checkpoint, &bytes);
    });
    std::printf("capture+encode of %zu machines: %llu allocations, then "
                "%llu\n",
                kMachines, static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(second));
    EXPECT_GT(first, kMachines); // the count sees per-machine vectors
    EXPECT_EQ(second, 0u);
    EXPECT_EQ(bytes, state::encodeCheckpoint(state::captureSolver(solver)));
}

TEST(CheckpointAlloc, SecondManagerSaveAllocatesNothingPerMachine)
{
    core::Solver solver;
    buildFleet(solver);
    // One tracked sender per machine, named like its machine.
    proto::SolverService service(solver);
    for (const std::string &name : solver.machineNames()) {
        proto::UtilizationUpdate update;
        update.machine = name;
        update.component = "cpu";
        update.utilization = 0.5;
        update.sequence = 1;
        proto::Packet packet = proto::encode(update);
        service.handlePacket(packet.data(), packet.size());
    }
    ASSERT_EQ(service.lossStats().senders, kMachines);

    std::string path = "/tmp/mercury_checkpoint_alloc_test." +
                       std::to_string(::getpid());
    state::CheckpointManager manager(solver, {path, 0.0});
    manager.setSenderExporter(
        [&](std::vector<state::SenderRecord> &records) {
            service.exportSenders(records);
        });

    std::string error;
    ASSERT_TRUE(manager.saveNow(&error)) << error;
    uint64_t second = countAllocations([&] {
        ASSERT_TRUE(manager.saveNow(&error)) << error;
    });
    std::printf("second save of %zu machines and senders: %llu "
                "allocations\n",
                kMachines, static_cast<unsigned long long>(second));
    // The file layer's path strings, not one per machine or sender.
    EXPECT_LT(second, 8u);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

} // namespace
} // namespace mercury
