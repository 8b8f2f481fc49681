/**
 * @file
 * Tests for the Solver facade: iteration accounting, aliases, named
 * queries, utilization routing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/solver.hh"

namespace mercury {
namespace core {
namespace {

TEST(Solver, IterationAccounting)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    EXPECT_EQ(solver.iterations(), 0u);
    solver.iterate();
    EXPECT_EQ(solver.iterations(), 1u);
    solver.run(59.0);
    EXPECT_EQ(solver.iterations(), 60u);
    EXPECT_DOUBLE_EQ(solver.emulatedSeconds(), 60.0);
}

TEST(Solver, RefusesAMachineAboveTheSubstepCap)
{
    // k = 1e300 on cpu -- cpu_air: one 1 s step would need about 1e300
    // substeps. The count used to go through int (undefined; INT_MIN
    // on x86, so std::max picked 1 substep) and the cpu went to
    // 2.6e283, inf and NaN within four iterations.
    MachineSpec spec = table1Server("hot");
    for (HeatEdgeSpec &edge : spec.heatEdges) {
        if (edge.a == "cpu" && edge.b == "cpu_air")
            edge.k = 1e300;
    }
    ASSERT_TRUE(validate(spec).empty());
    ThermalGraph graph(spec);
    EXPECT_GT(graph.substepsNeeded(1.0), ThermalGraph::kMaxSubsteps);
    EXPECT_NE(graph.substepCapError(1.0).find("machine 'hot'"),
              std::string::npos);
    EXPECT_DEATH(graph.step(1.0), "kMaxSubsteps");

    Solver solver;
    EXPECT_EXIT(solver.addMachine(spec), testing::ExitedWithCode(1),
                "machine 'hot': a 1 s step needs .* substeps, above the "
                "substep cap ThermalGraph::kMaxSubsteps = 100000");

    // The cap is on the plan: a stiff but plannable machine is kept.
    MachineSpec stiff = table1Server("stiff");
    stiff.heatEdges[0].k = 2000.0;
    ThermalGraph plannable(stiff);
    EXPECT_GT(plannable.substepsFor(1.0), 1);
    EXPECT_LE(plannable.substepsFor(1.0), ThermalGraph::kMaxSubsteps);
    solver.addMachine(stiff);
    solver.run(10.0);
    EXPECT_TRUE(std::isfinite(solver.temperature("stiff", "cpu")));
}

TEST(Solver, CustomIterationPeriod)
{
    SolverConfig config;
    config.iterationSeconds = 0.5;
    Solver solver(config);
    solver.addMachine(table1Server("m1"));
    solver.run(10.0);
    EXPECT_EQ(solver.iterations(), 20u);
    EXPECT_DOUBLE_EQ(solver.emulatedSeconds(), 10.0);
}

TEST(Solver, RunFloorsPartialIterations)
{
    // run() executes floor(seconds / iterationSeconds) whole
    // iterations. The old lround() rounded to nearest, so run(10.6)
    // silently did one iteration more than run(10.4).
    Solver solver;
    solver.addMachine(table1Server("m1"));
    solver.run(10.4);
    EXPECT_EQ(solver.iterations(), 10u);
    solver.run(10.6);
    EXPECT_EQ(solver.iterations(), 20u);
    solver.run(0.9); // less than one iteration: nothing happens
    EXPECT_EQ(solver.iterations(), 20u);
}

TEST(Solver, RunKeepsExactMultiplesDespiteFloatDivision)
{
    SolverConfig config;
    config.iterationSeconds = 0.1; // 3.0 / 0.1 != 30 in pure floor
    Solver solver(config);
    solver.addMachine(table1Server("m1"));
    solver.run(3.0);
    EXPECT_EQ(solver.iterations(), 30u);
}

TEST(Solver, ResolvedHandleFastPath)
{
    Solver solver;
    solver.addMachine(table1Server("alpha"));
    solver.addMachine(table1Server("beta"));

    Solver::NodeRef cpu = solver.resolveRef("beta", "cpu");
    Solver::NodeRef disk = solver.resolveRef("beta", "disk"); // alias
    EXPECT_TRUE(solver.isPowered(cpu));

    solver.setUtilization(cpu, 0.8);
    EXPECT_DOUBLE_EQ(solver.machine("beta").utilization("cpu"), 0.8);
    EXPECT_DOUBLE_EQ(solver.temperature(disk),
                     solver.temperature("beta", "disk_platters"));

    EXPECT_FALSE(solver.tryResolveRef("gamma", "cpu").has_value());
    EXPECT_FALSE(solver.tryResolveRef("alpha", "warp_core").has_value());
    EXPECT_DEATH(solver.resolveRef("alpha", "warp_core"),
                 "no component");
}

TEST(Solver, HandleAndStringPathsAgreeAfterStepping)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    Solver::NodeRef cpu = solver.resolveRef("m1", "cpu");
    solver.setUtilization(cpu, 1.0);
    solver.run(500.0);
    EXPECT_EQ(solver.temperature(cpu), solver.temperature("m1", "cpu"));
}

TEST(Solver, DiskAliasResolvesToPlatters)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    EXPECT_EQ(solver.resolveNode("m1", "disk"), "disk_platters");
    EXPECT_EQ(solver.resolveNode("m1", "cpu"), "cpu");
    EXPECT_DOUBLE_EQ(solver.temperature("m1", "disk"),
                     solver.temperature("m1", "disk_platters"));
}

TEST(Solver, SetUtilizationThroughAlias)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    solver.setUtilization("m1", "disk", 0.8);
    EXPECT_DOUBLE_EQ(solver.machine("m1").utilization("disk_platters"),
                     0.8);
}

TEST(Solver, CustomAlias)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    solver.addAlias("processor", "cpu");
    EXPECT_EQ(solver.resolveNode("m1", "processor"), "cpu");
}

TEST(Solver, MachineNamesAndLookup)
{
    Solver solver;
    solver.addMachine(table1Server("alpha"));
    solver.addMachine(table1Server("beta"));
    EXPECT_TRUE(solver.hasMachine("alpha"));
    EXPECT_FALSE(solver.hasMachine("gamma"));
    auto names = solver.machineNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "beta");
}

TEST(Solver, StandaloneInletTemperature)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    solver.setInletTemperature("m1", 30.0);
    EXPECT_DOUBLE_EQ(solver.machine("m1").inletTemperature(), 30.0);
    EXPECT_FALSE(solver.hasRoom());
}

TEST(Solver, MachinesHeatUpUnderLoad)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    double idle = solver.temperature("m1", "cpu");
    solver.setUtilization("m1", "cpu", 1.0);
    solver.run(3600.0);
    EXPECT_GT(solver.temperature("m1", "cpu"), idle + 10.0);
}

} // namespace
} // namespace core
} // namespace mercury
