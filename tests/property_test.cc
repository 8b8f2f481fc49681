/**
 * @file
 * Property-style tests (parameterized sweeps) over the thermal model,
 * the room model, the wire format, the parser and the load balancer:
 * invariants that must hold across whole input families, not just
 * hand-picked cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "core/room.hh"
#include "core/solver.hh"
#include "core/thermal_graph.hh"
#include "graphdot/parser.hh"
#include "lb/load_balancer.hh"
#include "proto/messages.hh"
#include "sim/simulator.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace mercury {
namespace {

// ---------------------------------------------------------------------
// Property: the tiny machine's steady state matches the closed form
// for every (power, k, fan) combination.
// ---------------------------------------------------------------------

struct SteadyCase
{
    double power;
    double k;
    double fanCfm;
};

class SteadyStateProperty : public ::testing::TestWithParam<SteadyCase>
{
};

TEST_P(SteadyStateProperty, MatchesClosedForm)
{
    const SteadyCase param = GetParam();
    core::MachineSpec spec;
    spec.name = "tiny";
    spec.inletTemperature = 21.6;
    spec.fanCfm = param.fanCfm;
    spec.initialTemperature = 21.6;
    core::NodeSpec comp;
    comp.name = "comp";
    comp.kind = core::NodeKind::Component;
    comp.mass = 0.2;
    comp.specificHeat = 500.0;
    comp.minPower = param.power;
    comp.maxPower = param.power;
    comp.hasPower = true;
    spec.nodes.push_back(comp);
    for (auto [name, kind] :
         {std::pair{"inlet", core::NodeKind::Inlet},
          std::pair{"air", core::NodeKind::Air},
          std::pair{"exhaust", core::NodeKind::Exhaust}}) {
        core::NodeSpec node;
        node.name = name;
        node.kind = kind;
        spec.nodes.push_back(node);
    }
    spec.heatEdges.push_back({"comp", "air", param.k});
    spec.airEdges.push_back({"inlet", "air", 1.0});
    spec.airEdges.push_back({"air", "exhaust", 1.0});

    core::ThermalGraph graph(spec);
    for (int i = 0; i < 40000; ++i)
        graph.step(1.0);

    double mdot_c =
        units::cfmToKgPerS(param.fanCfm) * units::kAirSpecificHeat;
    double expected_air = 21.6 + param.power / mdot_c;
    double expected_comp = expected_air + param.power / param.k;
    EXPECT_NEAR(graph.temperature("air"), expected_air,
                0.002 * expected_air);
    EXPECT_NEAR(graph.temperature("comp"), expected_comp,
                0.002 * expected_comp);
}

INSTANTIATE_TEST_SUITE_P(
    PowerKFanSweep, SteadyStateProperty,
    ::testing::Values(SteadyCase{5.0, 0.5, 10.0},
                      SteadyCase{5.0, 2.0, 40.0},
                      SteadyCase{20.0, 0.5, 40.0},
                      SteadyCase{20.0, 8.0, 10.0},
                      SteadyCase{60.0, 2.0, 25.0},
                      SteadyCase{60.0, 8.0, 60.0},
                      SteadyCase{1.0, 0.1, 5.0},
                      SteadyCase{100.0, 20.0, 80.0}));

// ---------------------------------------------------------------------
// Property: on the Table 1 machine, for any utilization mix the
// exhaust enthalpy rise equals the total power, all air temperatures
// sit within [inlet, hottest solid], and mass is conserved.
// ---------------------------------------------------------------------

class Table1Invariants : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Table1Invariants, EnergyBoundsAndMass)
{
    Rng rng(GetParam());
    core::ThermalGraph graph(core::table1Server());
    graph.setUtilization("cpu", rng.uniform());
    graph.setUtilization("disk_platters", rng.uniform());
    for (int i = 0; i < 40000; ++i)
        graph.step(1.0);

    // Energy: everything generated leaves through the exhaust.
    double mdot_c =
        units::cfmToKgPerS(graph.fanCfm()) * units::kAirSpecificHeat;
    EXPECT_NEAR(graph.exhaustTemperature() - 21.6,
                graph.totalPower() / mdot_c, 0.05);

    // Mass: the exhaust carries exactly the fan's flow.
    EXPECT_NEAR(graph.massFlow(graph.nodeId("exhaust")),
                units::cfmToKgPerS(graph.fanCfm()), 1e-9);

    // Bounds: air temperatures between the inlet and the hottest
    // solid; no NaNs anywhere.
    double hottest_solid = 21.6;
    for (const std::string &name : graph.nodeNames()) {
        double value = graph.temperature(name);
        ASSERT_TRUE(std::isfinite(value)) << name;
        if (graph.nodeKind(graph.nodeId(name)) ==
            core::NodeKind::Component) {
            hottest_solid = std::max(hottest_solid, value);
        }
    }
    for (const std::string &name : graph.nodeNames()) {
        if (graph.nodeKind(graph.nodeId(name)) != core::NodeKind::Air)
            continue;
        double value = graph.temperature(name);
        EXPECT_GE(value, 21.6 - 1e-6) << name;
        EXPECT_LE(value, hottest_solid + 1e-6) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(UtilizationSeeds, Table1Invariants,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Property: temperatures are monotone in utilization.
// ---------------------------------------------------------------------

class Monotonicity : public ::testing::TestWithParam<double>
{
};

TEST_P(Monotonicity, MoreLoadNeverCools)
{
    double u = GetParam();
    core::ThermalGraph lo(core::table1Server());
    core::ThermalGraph hi(core::table1Server());
    lo.setUtilization("cpu", u);
    hi.setUtilization("cpu", std::min(1.0, u + 0.2));
    for (int i = 0; i < 30000; ++i) {
        lo.step(1.0);
        hi.step(1.0);
    }
    for (const char *node : {"cpu", "cpu_air", "exhaust", "motherboard"})
        EXPECT_GE(hi.temperature(node), lo.temperature(node) - 1e-9)
            << node << " at u=" << u;
}

INSTANTIATE_TEST_SUITE_P(UtilizationLevels, Monotonicity,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8));

// ---------------------------------------------------------------------
// Property: randomly mutated packets never crash the decoder, and it
// never mistakes garbage for a valid message unless magic+version+
// type happen to survive.
// ---------------------------------------------------------------------

TEST(WireFuzz, RandomPacketsNeverCrash)
{
    Rng rng(0xfeed);
    size_t decoded_ok = 0;
    for (int i = 0; i < 20000; ++i) {
        proto::Packet packet;
        for (auto &byte : packet)
            byte = static_cast<uint8_t>(rng.uniformInt(0, 255));
        if (proto::decode(packet))
            ++decoded_ok;
    }
    // Random 32-bit magic almost never matches.
    EXPECT_LT(decoded_ok, 3u);
}

TEST(WireFuzz, MutatedValidPacketsNeverCrash)
{
    Rng rng(0xbeef);
    proto::SensorRequest request{7, "machine1", "cpu"};
    for (int i = 0; i < 20000; ++i) {
        proto::Packet packet = proto::encode(request);
        int flips = static_cast<int>(rng.uniformInt(1, 8));
        for (int f = 0; f < flips; ++f) {
            size_t at = static_cast<size_t>(
                rng.uniformInt(0, proto::kMessageSize - 1));
            packet[at] ^= static_cast<uint8_t>(rng.uniformInt(1, 255));
        }
        auto message = proto::decode(packet); // must not crash
        (void)message;
    }
    SUCCEED();
}

// ---------------------------------------------------------------------
// Property: the parser survives a corpus of malformed configs and
// reports exactly the pinned diagnostics: the same text, line:col and
// order. Lexer errors come first, then parser errors, then semantic
// validation.
// ---------------------------------------------------------------------

struct DiagnosticsCase
{
    const char *source;
    std::vector<std::string> errors;
};

void
PrintTo(const DiagnosticsCase &row, std::ostream *out)
{
    *out << ::testing::PrintToString(std::string(row.source));
}

class ParserRobustness : public ::testing::TestWithParam<DiagnosticsCase>
{
};

TEST_P(ParserRobustness, ReportsErrorsWithoutCrashing)
{
    graphdot::ParseResult result = graphdot::parseConfig(GetParam().source);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.errors, GetParam().errors);
}

INSTANTIATE_TEST_SUITE_P(
    MalformedCorpus, ParserRobustness,
    ::testing::Values(
        DiagnosticsCase{
            "machine {",
            {"line 1:9: expected a name for the machine, found '{'",
             "line 1:10: expected '}' to close the machine body, found end of "
             "file",
             "machine with empty name",
             "machine '': expected exactly 1 inlet, found 0",
             "machine '': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { node }",
            {"line 1:18: expected a name for the node, found '}'",
             "line 1:18: expected ';' after node declaration, found '}'",
             "machine 'm': node with empty name",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { node a [kind=]; }",
            {"line 1:26: expected attribute value, found ']'",
             "line 1:27: unknown node kind ''",
             "machine 'm': component 'a' needs mass > 0",
             "machine 'm': component 'a' needs specific heat > 0",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { a -> ; }",
            {"line 1:18: expected a name for the edge target, found ';'",
             "line 1:20: air edge a ->  needs fraction > 0",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0",
             "machine 'm': air edge references unknown node 'a'"}},
        DiagnosticsCase{
            "machine m { a -- b [k=x]; }",
            {"line 1:27: attribute 'k' needs a numeric value",
             "line 1:27: heat edge a -- b needs k > 0",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0",
             "machine 'm': heat edge references unknown node 'a'",
             "machine 'm': heat edge references unknown node 'b'",
             "machine 'm': heat edge a -- b needs k > 0"}},
        DiagnosticsCase{
            "machine m { node inlet [kind=inlet] node b; }",
            {"line 1:37: expected ';' after node declaration, found identifier",
             "machine 'm': component 'b' needs mass > 0",
             "machine 'm': component 'b' needs specific heat > 0",
             "machine 'm': expected exactly 1 exhaust, found 0",
             "machine 'm': air vertex 'inlet' has outgoing fractions summing "
             "to 0.000000 (expected 1)"}},
        DiagnosticsCase{
            "room r { source; }",
            {"line 1:16: expected a name for the source, found ';'",
             "room 'r': node '' has outgoing fractions summing to 0.000000 "
             "(expected 1)"}},
        DiagnosticsCase{
            "cluster c { machine m uses; }",
            {"line 1:27: expected a name for the machine template, found ';'",
             "room 'c': machine node 'm' references unknown machine ''",
             "room 'c': no air source",
             "room 'c': node 'm' has outgoing fractions summing to 0.000000 "
             "(expected 1)"}},
        DiagnosticsCase{
            "machine m {}}",
            {"line 1:13: expected 'machine', 'room' or 'cluster'",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine \"unterminated",
            {"line 1:9: unterminated string literal",
             "line 1:22: expected '{' to open the machine body, found end of "
             "file",
             "line 1:22: expected '}' to close the machine body, found end of "
             "file",
             "machine 'unterminated': expected exactly 1 inlet, found 0",
             "machine 'unterminated': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { inlet_temperature = ; }",
            {"line 1:33: setting 'inlet_temperature' needs a numeric value",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { node a [kind=component, mass=0.1, c=1]; }",
            {"machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "== not a config at all ==",
            {"line 1:1: expected 'machine', 'room' or 'cluster'"}},
        DiagnosticsCase{
            "machine m1 {} machine m1 {}",
            {"machine 'm1': expected exactly 1 inlet, found 0",
             "machine 'm1': expected exactly 1 exhaust, found 0",
             "duplicate machine 'm1'",
             "machine 'm1': expected exactly 1 inlet, found 0",
             "machine 'm1': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { fan_cfm = +5; }",
            {"machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { fan_cfm = 1.; }",
            {"machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { fan_cfm = 1e; }",
            {"line 1:23: malformed number '1e'",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { fan_cfm = 1e+; }",
            {"line 1:23: malformed number '1e+'",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { fan_cfm = 1e999; }",
            {"line 1:23: malformed number '1e999'",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { fan_cfm = 1e-310; }",
            {"line 1:23: malformed number '1e-310'",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { node \"open [kind=air]; }",
            {"line 1:18: unterminated string literal",
             "line 1:37: expected ';' after node declaration, found end of "
             "file",
             "line 1:37: expected '}' to close the machine body, found end of "
             "file",
             "machine 'm': component 'open [kind=air]; }' needs mass > 0",
             "machine 'm': component 'open [kind=air]; }' needs specific heat "
             "> 0",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m { node a; /* never closed",
            {"line 1:36: unterminated block comment",
             "line 1:36: expected '}' to close the machine body, found end of "
             "file",
             "machine 'm': component 'a' needs mass > 0",
             "machine 'm': component 'a' needs specific heat > 0",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine \"m\\q\" {}",
            {"line 1:9: unknown escape '\\q'",
             "machine 'mq': expected exactly 1 inlet, found 0",
             "machine 'mq': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m {\n"
            "  node inlet [kind=inlet];\n"
            "  node air [kind=air];\n"
            "  node air [kind=air];\n"
            "  node exhaust [kind=exhaust];\n"
            "  inlet -> air [fraction=1];\n"
            "  air -> exhaust [fraction=1];\n"
            "}",
            {"machine 'm': duplicate node 'air'"}},
        DiagnosticsCase{
            "machine m {\n"
            "  node inlet [kind=inlet];\n"
            "  node a [kind=air];\n"
            "  node b [kind=air];\n"
            "  node exhaust [kind=exhaust];\n"
            "  inlet -> a [fraction=1];\n"
            "  a -> b [fraction=1];\n"
            "  b -> a [fraction=0.5];\n"
            "  b -> exhaust [fraction=0.5];\n"
            "}",
            {"machine 'm': air-flow graph has a cycle"}},
        DiagnosticsCase{
            "machine m {\n"
            "  node inlet [kind=inlet];\n"
            "  node air [kind=air];\n"
            "  node exhaust [kind=exhaust];\n"
            "  inlet -> air [fraction=0.5];\n"
            "  air -> exhaust [fraction=1];\n"
            "}",
            {"machine 'm': air vertex 'inlet' has outgoing fractions summing "
             "to 0.500000 (expected 1)"}},
        DiagnosticsCase{
            "machine m { fan_cfm = 1.2.3; }",
            {"line 1:26: unexpected character '.'",
             "line 1:27: expected ';' after setting, found number",
             "line 1:27: unexpected number in machine body",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine m {\n"
            "\tnode \"a\\tb\\n"
            "\\\"c\\\\\" [kind=air];\n"
            "\tx = -; + ; }",
            {"line 3:6: unexpected character '-'",
             "line 3:9: unexpected character '+'",
             "line 3:7: setting 'x' needs a numeric value",
             "line 3:11: unexpected ';' in machine body",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0",
             "machine 'm': air vertex 'a\tb\n\"c\\' has outgoing fractions "
             "summing to 0.000000 (expected 1)"}},
        DiagnosticsCase{
            "machine m { node a [kind=5, mass=1abc]; }",
            {"line 1:35: expected ']' to close attribute list, found "
             "identifier",
             "line 1:35: unknown node kind '5'",
             "line 1:35: expected ';' after node declaration, found identifier",
             "line 1:38: expected '--' or '->' after 'abc'",
             "machine 'm': component 'a' needs specific heat > 0",
             "machine 'm': expected exactly 1 inlet, found 0",
             "machine 'm': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine \"multi\nline\" {\n  @ }",
            {"line 3:3: unexpected character '@'",
             "machine 'multi\nline': expected exactly 1 inlet, found 0",
             "machine 'multi\nline': expected exactly 1 exhaust, found 0"}},
        DiagnosticsCase{
            "machine a {} room r { source ac [temperature=18]; machine a; "
            "machine a; ac -> a [fraction=1]; a -> zz [fraction=2]; } room s "
            "{}",
            {"line 1:128: multiple room declarations (only one is supported)",
             "machine 'a': expected exactly 1 inlet, found 0",
             "machine 'a': expected exactly 1 exhaust, found 0",
             "room 'r': duplicate node 'a'",
             "room 'r': edge references unknown node 'zz'",
             "room 'r': edge a -> zz has fraction outside (0, 1]",
             "room 'r': node 'a' has outgoing fractions summing to 2.000000 "
             "(expected 1)",
             "room 'r': node 'a' has outgoing fractions summing to 2.000000 "
             "(expected 1)"}},
        DiagnosticsCase{
            "room r { source ac; mix x; sink s; ac -> x [fraction=1]; x -> x "
            "[fraction=1]; }",
            {"room 'r': room air graph has a cycle"}},
        DiagnosticsCase{
            "room r { mix x; sink s; x -> s [fraction=1]; }",
            {"room 'r': no air source"}}));

// ---------------------------------------------------------------------
// Property: weighted least connections keeps equal-weight servers
// balanced within one connection, for any server count.
// ---------------------------------------------------------------------

class WlcBalance : public ::testing::TestWithParam<int>
{
};

TEST_P(WlcBalance, EqualWeightsStayWithinOneConnection)
{
    int servers = GetParam();
    sim::Simulator simulator;
    cluster::ServerConfig config;
    config.maxConnections = 100000;
    config.maxQueueSeconds = 1e9;
    std::vector<std::unique_ptr<cluster::ServerMachine>> machines;
    lb::LoadBalancer balancer;
    for (int i = 0; i < servers; ++i) {
        machines.push_back(std::make_unique<cluster::ServerMachine>(
            simulator, "s" + std::to_string(i), config));
        balancer.addServer(machines.back().get());
    }
    for (int i = 0; i < 997; ++i) {
        cluster::Request request;
        request.id = static_cast<uint64_t>(i);
        request.cpuSeconds = 50.0; // long-lived
        balancer.submit(request);
    }
    int lo = 1 << 30;
    int hi = 0;
    for (const std::string &name : balancer.serverNames()) {
        lo = std::min(lo, balancer.activeConnections(name));
        hi = std::max(hi, balancer.activeConnections(name));
    }
    EXPECT_LE(hi - lo, 1);
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, WlcBalance,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// ---------------------------------------------------------------------
// Property: room mixing never produces temperatures outside the range
// of its inputs (AC supply .. hottest machine exhaust).
// ---------------------------------------------------------------------

class RoomBounds : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RoomBounds, MixedTemperaturesStayWithinInputs)
{
    Rng rng(GetParam());
    core::Solver solver;
    std::vector<std::string> names{"m1", "m2", "m3"};
    for (const std::string &name : names)
        solver.addMachine(core::table1Server(name));
    double ac = rng.uniform(15.0, 25.0);
    solver.setRoom(core::table1Room(names, ac));
    for (const std::string &name : names)
        solver.setUtilization(name, "cpu", rng.uniform());
    solver.run(30000.0);

    double hottest_exhaust = ac;
    for (const std::string &name : names) {
        hottest_exhaust = std::max(
            hottest_exhaust, solver.machine(name).exhaustTemperature());
        EXPECT_NEAR(solver.machine(name).inletTemperature(), ac, 1e-9);
    }
    double mixed = solver.room().temperature("cluster_exhaust");
    EXPECT_GE(mixed, ac - 1e-9);
    EXPECT_LE(mixed, hottest_exhaust + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RoomSeeds, RoomBounds,
                         ::testing::Range<uint64_t>(100, 108));

} // namespace
} // namespace mercury
