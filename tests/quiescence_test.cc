/**
 * @file
 * Quiescence-aware active-set stepping: the Solver may freeze machines
 * whose temperatures converged and skip their step() calls. These
 * tests pin the engine's contract: epsilon = 0 is bitwise-identical
 * to the classic path, a positive epsilon keeps the trajectory within
 * 2 x epsilon of the exact solver under random mutation/wake
 * schedules, every wake source actually wakes, and the energy
 * accumulator keeps advancing while frozen. Pins and stopped fans on
 * lanes in the middle of plain runs must leave the classic path, the
 * epsilon = 0 path and the active-set path bitwise equal to the same
 * machines stepped alone. Also an asan/tsan target.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.hh"

namespace mercury {
namespace core {
namespace {

std::vector<std::string>
makeNames(int machines)
{
    std::vector<std::string> names;
    for (int i = 0; i < machines; ++i)
        names.push_back("m" + std::to_string(i + 1));
    return names;
}

void
buildCluster(Solver &solver, const std::vector<std::string> &names)
{
    for (const std::string &name : names)
        solver.addMachine(table1Server(name));
    solver.setRoom(table1Room(names, 18.0));
}

/** Every node temperature of every machine, plus the energy counters. */
std::vector<double>
snapshot(Solver &solver, const std::vector<std::string> &names)
{
    std::vector<double> out;
    for (const std::string &name : names) {
        const ThermalGraph &graph = solver.machine(name);
        std::vector<double> temps = graph.temperatures();
        out.insert(out.end(), temps.begin(), temps.end());
        out.push_back(graph.energyConsumed());
    }
    return out;
}

/** One deterministic pseudo-random utilization/mutation schedule,
 *  replayable against any solver configuration. */
struct ScheduleEntry
{
    int iteration;
    int machine;
    double utilization;
};

std::vector<ScheduleEntry>
makeSchedule(int machines, int mutation_iterations, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> pick(0, machines - 1);
    std::uniform_real_distribution<double> load(0.0, 1.0);
    std::vector<ScheduleEntry> schedule;
    for (int it = 0; it < mutation_iterations; ++it) {
        if (it % 7 == 0)
            schedule.push_back({it, pick(rng), load(rng)});
    }
    return schedule;
}

/** Replay a schedule: mutation bursts separated by long steady
 *  stretches (where freezing can happen), `total` iterations. */
void
replay(Solver &solver, const std::vector<std::string> &names,
       const std::vector<ScheduleEntry> &schedule, int total)
{
    std::vector<Solver::NodeRef> cpus;
    for (const std::string &name : names)
        cpus.push_back(solver.resolveRef(name, "cpu"));
    size_t next = 0;
    for (int it = 0; it < total; ++it) {
        while (next < schedule.size() && schedule[next].iteration == it) {
            solver.setUtilization(cpus[schedule[next].machine],
                                  schedule[next].utilization);
            ++next;
        }
        solver.iterate();
    }
}

TEST(Quiescence, EpsilonZeroIsBitwiseIdenticalToClassicPath)
{
    const int kMachines = 6;
    const int kIterations = 3000;
    std::vector<std::string> names = makeNames(kMachines);
    std::vector<ScheduleEntry> schedule =
        makeSchedule(kMachines, 400, 12345);

    SolverConfig classic;
    classic.threads = 1;
    Solver exact(classic);
    buildCluster(exact, names);
    replay(exact, names, schedule, kIterations);

    // Same epsilon = 0 but with the other quiescence knobs set: the
    // engine must stay disabled and out of the arithmetic entirely.
    SolverConfig zero;
    zero.threads = 1;
    zero.quiescenceEpsilon = 0.0;
    zero.quiescenceHoldIterations = 1;
    zero.quiescenceRefreshIterations = 2;
    Solver gated(zero);
    buildCluster(gated, names);
    replay(gated, names, schedule, kIterations);

    EXPECT_FALSE(gated.quiescenceEnabled());
    EXPECT_EQ(gated.frozenMachineCount(), 0u);

    std::vector<double> a = snapshot(exact, names);
    std::vector<double> b = snapshot(gated, names);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
              0);
}

TEST(Quiescence, TrajectoryStaysWithinTwiceEpsilonOfExact)
{
    const int kMachines = 8;
    const double kEpsilon = 0.05;
    // Mutation burst, long steady stretch (machines freeze), second
    // burst (machines wake), second steady stretch.
    const int kBurst = 300;
    const int kSteady = 2700;
    std::vector<std::string> names = makeNames(kMachines);

    std::vector<ScheduleEntry> schedule = makeSchedule(kMachines, kBurst, 7);
    for (const ScheduleEntry &entry :
         makeSchedule(kMachines, kBurst, 99)) {
        schedule.push_back({entry.iteration + kBurst + kSteady,
                            entry.machine, entry.utilization});
    }
    const int kTotal = 2 * (kBurst + kSteady);

    SolverConfig exact_config;
    exact_config.threads = 1;
    Solver exact(exact_config);
    buildCluster(exact, names);

    SolverConfig active_config;
    active_config.threads = 1;
    active_config.quiescenceEpsilon = kEpsilon;
    Solver active(active_config);
    buildCluster(active, names);
    EXPECT_TRUE(active.quiescenceEnabled());

    replay(exact, names, schedule, kTotal);
    replay(active, names, schedule, kTotal);

    // The steady stretches were long enough that the active set really
    // shrank — otherwise this test proves nothing.
    EXPECT_GT(active.frozenMachineCount(), 0u);
    EXPECT_EQ(active.activeMachineCount() + active.frozenMachineCount(),
              static_cast<size_t>(kMachines));

    for (const std::string &name : names) {
        const ThermalGraph &ga = active.machine(name);
        const ThermalGraph &ge = exact.machine(name);
        std::vector<double> ta = ga.temperatures();
        std::vector<double> te = ge.temperatures();
        ASSERT_EQ(ta.size(), te.size());
        for (size_t i = 0; i < ta.size(); ++i) {
            EXPECT_NEAR(ta[i], te[i], 2.0 * kEpsilon)
                << name << " node " << i;
        }
        // Frozen machines accrue energy analytically; watts are
        // identical between the runs, so the totals agree to rounding.
        EXPECT_NEAR(ga.energyConsumed(), ge.energyConsumed(),
                    1e-6 * std::max(1.0, ge.energyConsumed()));
    }
}

TEST(Quiescence, WakingOneLaneMidBatchLeavesFrozenNeighboursUntouched)
{
    // One topology, so the whole fleet is one batch; the woken lane
    // sits in its middle and must step alone.
    std::vector<std::string> names = makeNames(24);
    SolverConfig config;
    config.threads = 1;
    config.quiescenceEpsilon = 0.5;
    config.quiescenceRefreshIterations = 0; // frozen lanes never re-step
    Solver solver(config);
    buildCluster(solver, names);

    solver.run(2500.0);
    ASSERT_EQ(solver.frozenMachineCount(), names.size())
        << "fleet never quiesced";
    ASSERT_EQ(solver.batchLanes(), std::vector<size_t>{names.size()});

    std::vector<std::vector<double>> before;
    for (const std::string &name : names)
        before.push_back(solver.machine(name).temperatures());
    const std::string woken = names[names.size() / 2];
    double current = solver.utilization(solver.resolveRef(woken, "cpu"));
    solver.setUtilization(woken, "cpu", current > 0.5 ? 0.1 : 0.9);
    solver.iterate();

    EXPECT_FALSE(solver.isFrozen(woken));
    for (size_t i = 0; i < names.size(); ++i) {
        std::vector<double> after = solver.machine(names[i]).temperatures();
        ASSERT_EQ(after.size(), before[i].size());
        bool unchanged = std::memcmp(after.data(), before[i].data(),
                                     after.size() * sizeof(double)) == 0;
        if (names[i] == woken) {
            EXPECT_FALSE(unchanged) << "the woken lane did not step";
        } else {
            EXPECT_TRUE(solver.isFrozen(names[i])) << names[i];
            EXPECT_TRUE(unchanged) << names[i] << " moved while frozen";
        }
    }
}

TEST(Quiescence, UtilizationChangeWakesAFrozenMachine)
{
    std::vector<std::string> names = makeNames(4);
    SolverConfig config;
    config.threads = 1;
    config.quiescenceEpsilon = 0.5;
    Solver solver(config);
    buildCluster(solver, names);

    solver.run(2500.0);
    ASSERT_TRUE(solver.isFrozen("m1")) << "fleet never quiesced";

    // Identical re-send must NOT wake (the setUtilization early-out).
    double current = solver.utilization(solver.resolveRef("m1", "cpu"));
    solver.setUtilization("m1", "cpu", current);
    solver.iterate();
    EXPECT_TRUE(solver.isFrozen("m1"));

    // A real change wakes exactly that machine on the next iteration.
    solver.setUtilization("m1", "cpu", current > 0.5 ? 0.1 : 0.9);
    solver.iterate();
    EXPECT_FALSE(solver.isFrozen("m1"));
    EXPECT_TRUE(solver.isFrozen("m2"));
}

TEST(Quiescence, FiddleStyleMutationsWake)
{
    std::vector<std::string> names = makeNames(3);
    SolverConfig config;
    config.threads = 1;
    config.quiescenceEpsilon = 0.5;
    Solver solver(config);
    buildCluster(solver, names);
    solver.run(2500.0);
    ASSERT_TRUE(solver.isFrozen("m1"));
    ASSERT_TRUE(solver.isFrozen("m2"));
    ASSERT_TRUE(solver.isFrozen("m3"));

    solver.machine("m1").setFanCfm(50.0);
    solver.machine("m2").setTemperature("cpu", 60.0);
    solver.setInletTemperature("m3", 30.0);
    solver.iterate();
    EXPECT_FALSE(solver.isFrozen("m1"));
    EXPECT_FALSE(solver.isFrozen("m2"));
    EXPECT_FALSE(solver.isFrozen("m3"));
}

TEST(Quiescence, RoomInletDriftWakesTheFleet)
{
    std::vector<std::string> names = makeNames(4);
    SolverConfig config;
    config.threads = 1;
    config.quiescenceEpsilon = 0.2;
    Solver solver(config);
    buildCluster(solver, names);
    solver.run(3000.0);
    ASSERT_GT(solver.frozenMachineCount(), 0u) << "fleet never quiesced";

    // The AC setpoint jumps by far more than epsilon: the next room
    // step delivers drifted inlets and every frozen machine wakes.
    solver.room().setSourceTemperature("ac", 26.0);
    solver.iterate();
    EXPECT_EQ(solver.frozenMachineCount(), 0u);
}

TEST(Quiescence, WakeAllMachinesResetsTheActiveSet)
{
    std::vector<std::string> names = makeNames(4);
    SolverConfig config;
    config.threads = 1;
    config.quiescenceEpsilon = 0.5;
    Solver solver(config);
    buildCluster(solver, names);
    solver.run(2500.0);
    ASSERT_GT(solver.frozenMachineCount(), 0u);

    solver.wakeAllMachines();
    EXPECT_EQ(solver.frozenMachineCount(), 0u);
    EXPECT_EQ(solver.activeMachineCount(), names.size());

    // And the fleet re-freezes afterwards: waking is not sticky.
    solver.run(2500.0);
    EXPECT_GT(solver.frozenMachineCount(), 0u);
}

TEST(Quiescence, PinsAndStoppedFansMidBatchMatchLoneMachinesBitwise)
{
    // No room: every machine is independent, so each must follow its
    // twin, a lone graph that steps through the one-lane (general)
    // kernel. The fleet is one batch; pins (the inlet included) and
    // stopped fans in its middle split its plain runs.
    const int kMachines = 40;
    std::vector<std::string> names = makeNames(kMachines);
    SolverConfig classic;
    classic.threads = 1;
    SolverConfig gated = classic;
    gated.quiescenceHoldIterations = 1;
    gated.quiescenceRefreshIterations = 2;
    // A positive epsilon that can never freeze: the active-set path
    // steps every lane, through its own run planning.
    SolverConfig active = classic;
    active.quiescenceEpsilon = 0.05;
    active.quiescenceHoldIterations = UINT_MAX;

    std::vector<std::unique_ptr<Solver>> solvers;
    for (const SolverConfig &config : {classic, gated, active}) {
        solvers.push_back(std::make_unique<Solver>(config));
        for (const std::string &name : names)
            solvers.back()->addMachine(table1Server(name));
    }
    std::vector<std::unique_ptr<ThermalGraph>> twins;
    for (const std::string &name : names)
        twins.push_back(std::make_unique<ThermalGraph>(table1Server(name)));

    // Apply one mutation to every solver's machine and to its twin.
    auto each = [&](int i, auto &&mutate) {
        for (auto &solver : solvers)
            mutate(solver->machine(names[i]));
        mutate(*twins[i]);
    };
    auto step = [&](int iterations) {
        for (int it = 0; it < iterations; ++it) {
            for (auto &solver : solvers)
                solver->iterate();
            for (auto &twin : twins)
                twin->step(1.0);
        }
    };
    auto expect_twins = [&](const std::string &when) {
        for (size_t s = 0; s < solvers.size(); ++s) {
            for (int i = 0; i < kMachines; ++i) {
                const ThermalGraph &got = solvers[s]->machine(names[i]);
                std::vector<double> a = got.temperatures();
                a.push_back(got.energyConsumed());
                std::vector<double> b = twins[i]->temperatures();
                b.push_back(twins[i]->energyConsumed());
                ASSERT_EQ(std::memcmp(a.data(), b.data(),
                                      a.size() * sizeof(double)),
                          0)
                    << when << ": solver " << s << ", " << names[i];
            }
        }
        EXPECT_FALSE(solvers[2]->frozenMachineCount());
    };

    std::mt19937 rng(31337);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    auto pick = [&](int n) { return static_cast<int>(unit(rng) * n); };
    const char *pinnable[] = {"cpu", "inlet", "cpu_air", "void_air"};
    std::vector<std::pair<int, const char *>> pins;
    std::vector<int> stopped;
    step(3);
    expect_twins("plain runs");
    for (int round = 0; round < 20; ++round) {
        double load = unit(rng);
        each(pick(kMachines),
             [&](ThermalGraph &g) { g.setUtilization("cpu", load); });
        int lane = 2 + pick(kMachines - 4);
        double r = unit(rng);
        double celsius = 20.0 + 30.0 * unit(rng);
        if (r < 0.35) {
            const char *node = pinnable[pick(4)];
            each(lane,
                 [&](ThermalGraph &g) { g.pinTemperature(node, celsius); });
            pins.emplace_back(lane, node);
        } else if (r < 0.6) {
            each(lane, [](ThermalGraph &g) { g.setFanCfm(0.0); });
            stopped.push_back(lane);
        } else if (r < 0.8 && !pins.empty()) {
            auto [at, node] = pins[pick(static_cast<int>(pins.size()))];
            each(at, [&](ThermalGraph &g) { g.unpinTemperature(node); });
        } else if (!stopped.empty()) {
            int at = stopped[pick(static_cast<int>(stopped.size()))];
            each(at, [](ThermalGraph &g) { g.setFanCfm(38.6); });
        }
        step(1 + pick(3));
        expect_twins("round " + std::to_string(round));
    }
}

TEST(Quiescence, ParallelActiveSetMatchesSerialActiveSet)
{
    // The active-set fan-out preserves the determinism contract of the
    // classic path: thread count must not change a single bit.
    const int kMachines = 8;
    const int kIterations = 4000;
    std::vector<std::string> names = makeNames(kMachines);
    std::vector<ScheduleEntry> schedule =
        makeSchedule(kMachines, 500, 4242);

    auto run = [&](unsigned threads) {
        SolverConfig config;
        config.threads = threads;
        config.quiescenceEpsilon = 0.05;
        Solver solver(config);
        buildCluster(solver, names);
        replay(solver, names, schedule, kIterations);
        return snapshot(solver, names);
    };
    std::vector<double> serial = run(1);
    std::vector<double> parallel = run(4);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(double)),
              0);
}

} // namespace
} // namespace core
} // namespace mercury
