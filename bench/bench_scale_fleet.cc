/**
 * @file
 * Fleet-scale iteration cost and the quiescence-aware active-set
 * engine. The claim under test: once a mostly-steady fleet has
 * converged, iteration cost should scale with the *active* machines
 * (plus the O(fleet) room phase), not the fleet size — a 1024-machine
 * room at steady load iterates >= 10x faster with quiescence on than
 * the classic all-machines path (scripts/bench.py gates on
 * exactly that ratio).
 *
 * Both sides run serial (threads = 1) so the ratio isolates the
 * algorithmic win from thread-pool speedup, which
 * BM_SolverIterationClusterThreads in bench_micro_mercury measures
 * separately.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/solver.hh"

namespace {

using namespace mercury;

/**
 * range(0) machines at steady mixed load, range(1) != 0 enabling the
 * quiescence engine. Setup warms the fleet through its thermal
 * transient (same emulated span for both configurations) so the
 * measured loop sees the steady state the engine is built for.
 */
void
BM_SolverIterationSteadyFleet(benchmark::State &state)
{
    int machines = static_cast<int>(state.range(0));
    bool quiesce = state.range(1) != 0;

    core::SolverConfig config;
    config.threads = 1;
    if (quiesce) {
        config.quiescenceEpsilon = 0.25;
        config.quiescenceRefreshIterations = 256;
    }
    core::Solver solver(config);
    std::vector<std::string> names;
    for (int i = 0; i < machines; ++i)
        names.push_back("m" + std::to_string(i + 1));
    for (const std::string &name : names)
        solver.addMachine(core::table1Server(name));
    solver.setRoom(core::table1Room(names, 18.0));
    for (size_t i = 0; i < names.size(); ++i) {
        double util = 0.25 * static_cast<double>(i % 4);
        solver.setUtilization(names[i], "cpu", util);
    }

    // Warm-up: ride out the cold-start transient (thermal time
    // constant is ~180 emulated seconds) far enough that the active
    // set has collapsed when quiescence is on.
    solver.run(2000.0);

    for (auto _ : state)
        solver.iterate();

    state.SetItemsProcessed(state.iterations() * machines);
    state.counters["active"] =
        static_cast<double>(solver.activeMachineCount());
    state.counters["frozen"] =
        static_cast<double>(solver.frozenMachineCount());
}
BENCHMARK(BM_SolverIterationSteadyFleet)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Unit(benchmark::kMicrosecond);

/**
 * The wake path under churn: every iteration mutates a small slice of
 * the fleet (monitord-style utilization updates), so machines keep
 * cycling between frozen and active. Guards against the engine's
 * bookkeeping eating the win when the fleet is not perfectly still.
 */
void
BM_SolverIterationChurningFleet(benchmark::State &state)
{
    int machines = static_cast<int>(state.range(0));

    core::SolverConfig config;
    config.threads = 1;
    config.quiescenceEpsilon = 0.25;
    config.quiescenceRefreshIterations = 256;
    core::Solver solver(config);
    std::vector<std::string> names;
    for (int i = 0; i < machines; ++i)
        names.push_back("m" + std::to_string(i + 1));
    for (const std::string &name : names)
        solver.addMachine(core::table1Server(name));
    solver.setRoom(core::table1Room(names, 18.0));
    std::vector<core::Solver::NodeRef> cpus;
    for (const std::string &name : names)
        cpus.push_back(solver.resolveRef(name, "cpu"));
    solver.run(2000.0);

    // ~1% of the fleet changes load each iteration.
    int stride = machines >= 100 ? machines / 100 : 1;
    size_t cursor = 0;
    int flip = 0;
    for (auto _ : state) {
        for (int k = 0; k < stride; ++k) {
            cursor = (cursor + 101) % cpus.size();
            solver.setUtilization(cpus[cursor], flip ? 0.9 : 0.1);
        }
        flip = !flip;
        solver.iterate();
    }
    state.SetItemsProcessed(state.iterations() * machines);
    state.counters["active"] =
        static_cast<double>(solver.activeMachineCount());
    state.counters["frozen"] =
        static_cast<double>(solver.frozenMachineCount());
}
BENCHMARK(BM_SolverIterationChurningFleet)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
