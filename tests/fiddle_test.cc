/**
 * @file
 * Tests for the fiddle command language and script runner (the
 * thermal-emergency tool of Section 2.3, Figure 4).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/solver.hh"
#include "fiddle/command.hh"
#include "fiddle/script.hh"
#include "sim/simulator.hh"

namespace mercury {
namespace fiddle {
namespace {

core::Solver &
singleMachine(std::unique_ptr<core::Solver> &holder)
{
    holder = std::make_unique<core::Solver>();
    holder->addMachine(core::table1Server("machine1"));
    return *holder;
}

TEST(Apply, RefusesMutationsAboveTheSubstepCap)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    core::ThermalGraph &graph = solver.machine("machine1");
    double k = graph.heatK("cpu", "cpu_air");

    FiddleResult result = applyLine(solver, "machine1 k cpu:cpu_air 1e300");
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message.find("machine 'machine1'"), std::string::npos)
        << result.message;
    EXPECT_NE(result.message.find("ThermalGraph::kMaxSubsteps"),
              std::string::npos)
        << result.message;
    EXPECT_EQ(graph.heatK("cpu", "cpu_air"), k); // undone
    solver.run(5.0);
    EXPECT_TRUE(std::isfinite(solver.temperature("machine1", "cpu")));

    // Fan and fraction mutations go through the same check and, when
    // the plan fits, apply as before.
    EXPECT_TRUE(applyLine(solver, "machine1 fan 0").ok);
    EXPECT_TRUE(applyLine(solver, "machine1 fraction void_air:cpu_air 0.5").ok);
    EXPECT_EQ(graph.airFraction("void_air", "cpu_air"), 0.5);
    EXPECT_TRUE(applyLine(solver, "machine1 k cpu:cpu_air 2").ok);
    EXPECT_EQ(graph.heatK("cpu", "cpu_air"), 2.0);
}

TEST(ParseCommand, PaperExampleLine)
{
    std::string error;
    auto cmd = parseCommand("fiddle machine1 temperature inlet 30", &error);
    ASSERT_TRUE(cmd.has_value()) << error;
    EXPECT_EQ(cmd->machine, "machine1");
    EXPECT_EQ(cmd->property, "temperature");
    EXPECT_EQ(cmd->target, "inlet");
    ASSERT_EQ(cmd->values.size(), 1u);
    EXPECT_DOUBLE_EQ(cmd->values[0], 30.0);
}

TEST(ParseCommand, LeadingFiddleTokenOptional)
{
    auto cmd = parseCommand("machine1 fan 45.5");
    ASSERT_TRUE(cmd.has_value());
    EXPECT_EQ(cmd->property, "fan");
    EXPECT_DOUBLE_EQ(cmd->values[0], 45.5);
}

TEST(ParseCommand, EdgeTargets)
{
    auto cmd = parseCommand("machine1 k cpu:cpu_air 0.9");
    ASSERT_TRUE(cmd.has_value());
    EXPECT_EQ(cmd->target, "cpu:cpu_air");

    std::string error;
    EXPECT_FALSE(parseCommand("machine1 k cpu 0.9", &error).has_value());
    EXPECT_NE(error.find("a:b"), std::string::npos);
}

TEST(ParseCommand, PowerTakesTwoValues)
{
    auto cmd = parseCommand("machine1 power cpu 7 31");
    ASSERT_TRUE(cmd.has_value());
    ASSERT_EQ(cmd->values.size(), 2u);
    EXPECT_DOUBLE_EQ(cmd->values[1], 31.0);

    EXPECT_FALSE(parseCommand("machine1 power cpu 7").has_value());
}

TEST(ParseCommand, AutoRestoresInlet)
{
    auto cmd = parseCommand("machine1 temperature inlet auto");
    ASSERT_TRUE(cmd.has_value());
    EXPECT_TRUE(cmd->autoValue);
    EXPECT_TRUE(cmd->values.empty());
}

TEST(ParseCommand, Rejections)
{
    std::string error;
    EXPECT_FALSE(parseCommand("", &error).has_value());
    EXPECT_FALSE(parseCommand("machine1", &error).has_value());
    EXPECT_FALSE(parseCommand("machine1 explode now", &error).has_value());
    EXPECT_NE(error.find("unknown property"), std::string::npos);
    EXPECT_FALSE(
        parseCommand("machine1 temperature inlet abc", &error).has_value());
    EXPECT_FALSE(parseCommand("m ac x 20", &error).has_value());
    // Non-finite numbers would turn the solver's state to NaN.
    for (const char *line :
         {"machine1 utilization cpu nan", "machine1 temperature cpu nan",
          "machine1 pin cpu inf", "machine1 fan inf", "machine1 fan -inf",
          "machine1 power cpu 7 nan"}) {
        EXPECT_FALSE(parseCommand(line, &error).has_value()) << line;
        EXPECT_NE(error.find("malformed number"), std::string::npos)
            << line << ": " << error;
    }
}

TEST(ApplyCommand, InletEmergencyAndRestore)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);

    FiddleResult result =
        applyLine(solver, "fiddle machine1 temperature inlet 38.6");
    EXPECT_TRUE(result.ok) << result.message;
    EXPECT_DOUBLE_EQ(solver.machine("machine1").inletTemperature(), 38.6);

    result = applyLine(solver, "machine1 temperature inlet 21.6");
    EXPECT_TRUE(result.ok);
    EXPECT_DOUBLE_EQ(solver.machine("machine1").inletTemperature(), 21.6);
}

TEST(ApplyCommand, UnknownMachineReported)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    FiddleResult result = applyLine(solver, "ghost fan 40");
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message.find("unknown machine"), std::string::npos);
}

TEST(ApplyCommand, PinAndUnpin)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    EXPECT_TRUE(applyLine(solver, "machine1 pin cpu 85").ok);
    EXPECT_TRUE(solver.machine("machine1").isPinned("cpu"));
    EXPECT_DOUBLE_EQ(solver.temperature("machine1", "cpu"), 85.0);
    EXPECT_TRUE(applyLine(solver, "machine1 unpin cpu").ok);
    EXPECT_FALSE(solver.machine("machine1").isPinned("cpu"));
}

TEST(ApplyCommand, UtilizationThroughAlias)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    EXPECT_TRUE(applyLine(solver, "machine1 utilization disk 0.9").ok);
    EXPECT_DOUBLE_EQ(
        solver.machine("machine1").utilization("disk_platters"), 0.9);
}

TEST(ApplyCommand, KAndFractionValidation)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    EXPECT_TRUE(applyLine(solver, "machine1 k cpu:cpu_air 1.5").ok);
    EXPECT_DOUBLE_EQ(solver.machine("machine1").heatK("cpu", "cpu_air"),
                     1.5);
    EXPECT_FALSE(applyLine(solver, "machine1 k cpu:disk_air 1.5").ok);
    EXPECT_FALSE(applyLine(solver, "machine1 fraction cpu:cpu_air 0.5").ok);
    EXPECT_TRUE(
        applyLine(solver, "machine1 fraction ps_air_down:cpu_air 0.2").ok);
}

TEST(ApplyCommand, PowerRange)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    EXPECT_TRUE(applyLine(solver, "machine1 power cpu 10 60").ok);
    solver.setUtilization("machine1", "cpu", 1.0);
    EXPECT_DOUBLE_EQ(solver.machine("machine1").power("cpu"), 60.0);
    EXPECT_FALSE(applyLine(solver, "machine1 power cpu 60 10").ok);
    EXPECT_FALSE(applyLine(solver, "machine1 power motherboard 4 4").ok ==
                 false)
        << "motherboard is powered and should accept a range";
}

TEST(ApplyCommand, RoomCommands)
{
    auto solver = std::make_unique<core::Solver>();
    solver->addMachine(core::table1Server("m1"));
    solver->addMachine(core::table1Server("m2"));
    solver->setRoom(core::table1Room({"m1", "m2"}, 18.0));

    EXPECT_TRUE(applyLine(*solver, "room ac ac 27").ok);
    solver->run(10.0);
    EXPECT_NEAR(solver->machine("m1").inletTemperature(), 27.0, 1e-9);

    EXPECT_TRUE(applyLine(*solver, "room fraction m1:cluster_exhaust 0.9")
                    .ok);
    EXPECT_FALSE(applyLine(*solver, "room ac nosuch 27").ok ==
                 true);
}

TEST(ApplyCommand, RoomCommandsWithoutRoomFail)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    FiddleResult result = applyLine(solver, "room ac ac 25");
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message.find("no room model"), std::string::npos);
}

TEST(Script, ParsesPaperFigure4)
{
    const char *text =
        "#!/bin/bash\n"
        "sleep 100\n"
        "fiddle machine1 temperature inlet 30\n"
        "sleep 200\n"
        "fiddle machine1 temperature inlet 21.6\n";
    std::vector<std::string> errors;
    FiddleScript script = FiddleScript::parse(text, &errors);
    EXPECT_TRUE(errors.empty());
    ASSERT_EQ(script.commands().size(), 2u);
    EXPECT_DOUBLE_EQ(script.commands()[0].time, 100.0);
    EXPECT_DOUBLE_EQ(script.commands()[0].command.values[0], 30.0);
    EXPECT_DOUBLE_EQ(script.commands()[1].time, 300.0);
    EXPECT_DOUBLE_EQ(script.duration(), 300.0);
}

TEST(Script, ReportsBadLinesButKeepsGoodOnes)
{
    std::vector<std::string> errors;
    FiddleScript script = FiddleScript::parse(
        "sleep ten\nfiddle m1 fan 40\nlaunch missiles\n", &errors);
    EXPECT_EQ(script.commands().size(), 1u);
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_NE(errors[0].find("line 1"), std::string::npos);
    EXPECT_NE(errors[1].find("unrecognized"), std::string::npos);
}

TEST(Script, ScheduleOnSimulatorFiresAtScriptTimes)
{
    std::unique_ptr<core::Solver> holder;
    core::Solver &solver = singleMachine(holder);
    sim::Simulator simulator;

    FiddleScript script = FiddleScript::parse(
        "sleep 100\nfiddle machine1 temperature inlet 30\n"
        "sleep 200\nfiddle machine1 temperature inlet 21.6\n");
    script.scheduleOn(simulator, solver);

    simulator.runUntil(sim::seconds(99));
    EXPECT_DOUBLE_EQ(solver.machine("machine1").inletTemperature(), 21.6);
    simulator.runUntil(sim::seconds(100));
    EXPECT_DOUBLE_EQ(solver.machine("machine1").inletTemperature(), 30.0);
    simulator.runUntil(sim::seconds(301));
    EXPECT_DOUBLE_EQ(solver.machine("machine1").inletTemperature(), 21.6);
}

} // namespace
} // namespace fiddle
} // namespace mercury
