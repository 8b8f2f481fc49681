/**
 * @file
 * Tests for the modified-dot configuration language: lexing, parsing,
 * diagnostics, round-tripping through the writer, Graphviz export.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/thermal_graph.hh"
#include "graphdot/lexer.hh"
#include "graphdot/parser.hh"
#include "graphdot/writer.hh"

namespace mercury {
namespace graphdot {
namespace {

/** Pull every token, the final EndOfFile included. */
std::vector<Token>
lexAll(Lexer &lexer)
{
    std::vector<Token> tokens{lexer.next()};
    while (tokens.back().kind != TokenKind::EndOfFile)
        tokens.push_back(lexer.next());
    return tokens;
}

TEST(Lexer, TokenizesAllKinds)
{
    Lexer lexer("machine m1 { a -- b [k=0.75]; c -> d; } \"quoted\" 1e-3");
    auto tokens = lexAll(lexer);
    EXPECT_TRUE(lexer.errors().empty());
    ASSERT_GE(tokens.size(), 5u);
    EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[0].text, "machine");
    EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);

    bool saw_heat = false;
    bool saw_air = false;
    bool saw_string = false;
    bool saw_number = false;
    for (const Token &token : tokens) {
        saw_heat = saw_heat || token.kind == TokenKind::HeatEdge;
        saw_air = saw_air || token.kind == TokenKind::AirEdge;
        if (token.kind == TokenKind::String) {
            saw_string = true;
            EXPECT_EQ(token.text, "quoted");
        }
        if (token.kind == TokenKind::Number && token.number == 1e-3)
            saw_number = true;
    }
    EXPECT_TRUE(saw_heat);
    EXPECT_TRUE(saw_air);
    EXPECT_TRUE(saw_string);
    EXPECT_TRUE(saw_number);
}

TEST(Lexer, CommentsAreSkipped)
{
    Lexer lexer("# hash comment\n// slashes\n/* block\ncomment */ x");
    auto tokens = lexAll(lexer);
    EXPECT_TRUE(lexer.errors().empty());
    ASSERT_EQ(tokens.size(), 2u); // 'x' + EOF
    EXPECT_EQ(tokens[0].text, "x");
}

TEST(Lexer, TracksLineNumbers)
{
    Lexer lexer("a\nb\n  c");
    auto tokens = lexAll(lexer);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_EQ(tokens[2].line, 3);
    EXPECT_EQ(tokens[2].column, 3);
}

TEST(Lexer, ReportsUnterminatedString)
{
    Lexer lexer("\"oops");
    lexAll(lexer);
    ASSERT_FALSE(lexer.errors().empty());
    EXPECT_NE(lexer.errors()[0].find("unterminated"), std::string::npos);
}

TEST(Lexer, NegativeNumbers)
{
    Lexer lexer("-3.5 --");
    auto tokens = lexAll(lexer);
    EXPECT_TRUE(lexer.errors().empty());
    EXPECT_EQ(tokens[0].kind, TokenKind::Number);
    EXPECT_DOUBLE_EQ(tokens[0].number, -3.5);
    EXPECT_EQ(tokens[1].kind, TokenKind::HeatEdge);
}

const char *kTinyConfig = R"(
machine box {
    inlet_temperature = 20;
    fan_cfm = 15;
    initial_temperature = 20;

    node comp [kind=component, mass=0.2, c=500, pmin=5, pmax=25];
    node inlet [kind=inlet];
    node air [kind=air];
    node exhaust [kind=exhaust];

    comp -- air [k=1.5];
    inlet -> air [fraction=1];
    air -> exhaust [fraction=1];
}
)";

TEST(Parser, ParsesMinimalMachine)
{
    ParseResult result = parseConfig(kTinyConfig);
    ASSERT_TRUE(result.ok()) << result.errors.front();
    ASSERT_EQ(result.config.machines.size(), 1u);
    const core::MachineSpec &spec = result.config.machines[0];
    EXPECT_EQ(spec.name, "box");
    EXPECT_DOUBLE_EQ(spec.fanCfm, 15.0);
    EXPECT_EQ(spec.nodes.size(), 4u);
    const core::NodeSpec *comp = spec.findNode("comp");
    ASSERT_NE(comp, nullptr);
    EXPECT_TRUE(comp->hasPower);
    EXPECT_DOUBLE_EQ(comp->maxPower, 25.0);
    ASSERT_EQ(spec.heatEdges.size(), 1u);
    EXPECT_DOUBLE_EQ(spec.heatEdges[0].k, 1.5);
    ASSERT_EQ(spec.airEdges.size(), 2u);
}

TEST(Parser, ParsesRoomWithMachines)
{
    std::string source = std::string(kTinyConfig) + R"(
cluster lab {
    source ac [temperature=17.5];
    sink out;
    machine n1 uses box;
    machine n2 uses box;
    ac -> n1 [fraction=0.5];
    ac -> n2 [fraction=0.5];
    n1 -> out [fraction=1];
    n2 -> out [fraction=1];
}
)";
    ParseResult result = parseConfig(source);
    ASSERT_TRUE(result.ok()) << result.errors.front();
    ASSERT_TRUE(result.config.room.has_value());
    const core::RoomSpec &room = *result.config.room;
    EXPECT_EQ(room.name, "lab");
    EXPECT_EQ(room.nodes.size(), 4u);
    EXPECT_EQ(room.edges.size(), 4u);
    const core::RoomNodeSpec *ac = room.findNode("ac");
    ASSERT_NE(ac, nullptr);
    EXPECT_DOUBLE_EQ(ac->temperature, 17.5);
    const core::RoomNodeSpec *n2 = room.findNode("n2");
    ASSERT_NE(n2, nullptr);
    EXPECT_EQ(n2->machine, "box");
}

TEST(Parser, ReportsUnknownAttribute)
{
    ParseResult result = parseConfig(
        "machine m { node inlet [kind=inlet, bogus=3]; }");
    ASSERT_FALSE(result.ok());
    bool found = false;
    for (const std::string &err : result.errors)
        found = found || err.find("bogus") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Parser, ReportsMissingSemicolonWithLocation)
{
    ParseResult result = parseConfig(
        "machine m {\n    node inlet [kind=inlet]\n}");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errors[0].find("line 3"), std::string::npos);
}

TEST(Parser, SemanticValidationRuns)
{
    // Parses fine but the air fractions do not sum to 1.
    ParseResult result = parseConfig(R"(
machine m {
    node inlet [kind=inlet];
    node air [kind=air];
    node exhaust [kind=exhaust];
    inlet -> air [fraction=0.5];
    air -> exhaust [fraction=1];
}
)");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errors[0].find("summing"), std::string::npos);
}

TEST(Parser, DuplicateMachineIsAConfigErrorNotABootAbort)
{
    // table1_server.dot appended to itself declares 'server' twice.
    // Accepted, it would abort the Solver at the second addMachine.
    std::ifstream in(MERCURY_CONFIG_DIR "/table1_server.dot");
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string doubled = buffer.str() + buffer.str();
    EXPECT_EQ(parseConfig(doubled).errors,
              std::vector<std::string>{"duplicate machine 'server'"});

    std::string path = ::testing::TempDir() + "doubled_server.dot";
    std::ofstream(path) << doubled;
    EXPECT_EXIT(loadConfigFile(path), ::testing::ExitedWithCode(1),
                "fatal: errors in config .*\n  duplicate machine 'server'");
    std::remove(path.c_str());
}

TEST(Parser, RecoversAndReportsMultipleErrors)
{
    ParseResult result = parseConfig(
        "machine m { node a [kind=component]; node b [bogus=1]; }");
    // mass/c missing for both components plus the unknown attribute:
    // all problems must surface, not just the first.
    EXPECT_GE(result.errors.size(), 2u);
}

TEST(Writer, RoundTripsTable1Server)
{
    core::ConfigSpec config;
    config.machines.push_back(core::table1Server("server"));
    config.room = core::table1Room({"server"}, 18.0);
    // table1Room names its machine node after the machine itself.
    std::string text = toText(config);

    ParseResult result = parseConfig(text);
    ASSERT_TRUE(result.ok()) << result.errors.front();
    ASSERT_EQ(result.config.machines.size(), 1u);
    const core::MachineSpec &reparsed = result.config.machines[0];
    const core::MachineSpec original = core::table1Server("server");

    EXPECT_EQ(reparsed.nodes.size(), original.nodes.size());
    EXPECT_EQ(reparsed.heatEdges.size(), original.heatEdges.size());
    EXPECT_EQ(reparsed.airEdges.size(), original.airEdges.size());
    for (const core::NodeSpec &node : original.nodes) {
        const core::NodeSpec *copy = reparsed.findNode(node.name);
        ASSERT_NE(copy, nullptr) << node.name;
        EXPECT_EQ(copy->kind, node.kind);
        EXPECT_DOUBLE_EQ(copy->mass, node.mass);
        EXPECT_DOUBLE_EQ(copy->specificHeat, node.specificHeat);
        EXPECT_EQ(copy->hasPower, node.hasPower);
        EXPECT_DOUBLE_EQ(copy->minPower, node.minPower);
        EXPECT_DOUBLE_EQ(copy->maxPower, node.maxPower);
    }
    ASSERT_TRUE(result.config.room.has_value());
    EXPECT_EQ(result.config.room->nodes.size(), 3u);
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(Writer, RoundTripsA4096MachineRoomBitwise)
{
    // Each ac -> machine fraction is 1/4096. Printed with "%g" (six
    // digits) they re-read summing to 1.000002, which validate()
    // rejects; every constant must instead come back bit for bit.
    core::ConfigSpec config;
    std::vector<std::string> names;
    for (int i = 0; i < 4096; ++i) {
        names.push_back("m" + std::to_string(i));
        config.machines.push_back(core::table1Server(names.back()));
    }
    config.room = core::table1Room(names, 18.0);

    ParseResult result = parseConfig(toText(config));
    ASSERT_TRUE(result.ok()) << result.errors.front();
    ASSERT_EQ(result.config.machines.size(), config.machines.size());
    for (size_t m = 0; m < config.machines.size(); ++m) {
        const core::MachineSpec &want = config.machines[m];
        const core::MachineSpec &got = result.config.machines[m];
        ASSERT_EQ(got.name, want.name);
        EXPECT_TRUE(sameBits(got.inletTemperature, want.inletTemperature));
        EXPECT_TRUE(sameBits(got.fanCfm, want.fanCfm));
        EXPECT_TRUE(
            sameBits(got.initialTemperature, want.initialTemperature));
        ASSERT_EQ(got.nodes.size(), want.nodes.size());
        for (size_t n = 0; n < want.nodes.size(); ++n) {
            const core::NodeSpec &a = got.nodes[n];
            const core::NodeSpec &b = want.nodes[n];
            ASSERT_EQ(a.name, b.name);
            EXPECT_EQ(a.kind, b.kind);
            EXPECT_TRUE(sameBits(a.mass, b.mass)) << a.name;
            EXPECT_TRUE(sameBits(a.specificHeat, b.specificHeat)) << a.name;
            EXPECT_EQ(a.hasPower, b.hasPower);
            EXPECT_TRUE(sameBits(a.minPower, b.minPower)) << a.name;
            EXPECT_TRUE(sameBits(a.maxPower, b.maxPower)) << a.name;
            ASSERT_EQ(a.initialTemperature.has_value(),
                      b.initialTemperature.has_value());
            if (b.initialTemperature) {
                EXPECT_TRUE(sameBits(*a.initialTemperature,
                                     *b.initialTemperature));
            }
        }
        ASSERT_EQ(got.heatEdges.size(), want.heatEdges.size());
        for (size_t e = 0; e < want.heatEdges.size(); ++e) {
            EXPECT_EQ(got.heatEdges[e].a, want.heatEdges[e].a);
            EXPECT_EQ(got.heatEdges[e].b, want.heatEdges[e].b);
            EXPECT_TRUE(sameBits(got.heatEdges[e].k, want.heatEdges[e].k));
        }
        ASSERT_EQ(got.airEdges.size(), want.airEdges.size());
        for (size_t e = 0; e < want.airEdges.size(); ++e) {
            EXPECT_EQ(got.airEdges[e].from, want.airEdges[e].from);
            EXPECT_EQ(got.airEdges[e].to, want.airEdges[e].to);
            EXPECT_TRUE(sameBits(got.airEdges[e].fraction,
                                 want.airEdges[e].fraction));
        }
    }

    ASSERT_TRUE(result.config.room.has_value());
    const core::RoomSpec &room = *result.config.room;
    ASSERT_EQ(room.nodes.size(), config.room->nodes.size());
    for (size_t n = 0; n < room.nodes.size(); ++n) {
        const core::RoomNodeSpec &want = config.room->nodes[n];
        EXPECT_EQ(room.nodes[n].name, want.name);
        EXPECT_EQ(room.nodes[n].kind, want.kind);
        EXPECT_EQ(room.nodes[n].machine, want.machine);
        if (want.kind == core::RoomNodeKind::Source) {
            EXPECT_TRUE(
                sameBits(room.nodes[n].temperature, want.temperature));
        }
    }
    ASSERT_EQ(room.edges.size(), config.room->edges.size());
    for (size_t e = 0; e < room.edges.size(); ++e) {
        const core::AirEdgeSpec &want = config.room->edges[e];
        EXPECT_EQ(room.edges[e].from, want.from);
        EXPECT_EQ(room.edges[e].to, want.to);
        EXPECT_TRUE(sameBits(room.edges[e].fraction, want.fraction));
    }
}

TEST(Writer, QuotesNamesWithSpaces)
{
    core::MachineSpec spec = core::table1Server("my server");
    std::ostringstream out;
    writeMachine(out, spec);
    EXPECT_NE(out.str().find("machine \"my server\""), std::string::npos);
}

TEST(Parser, StagnantAirWithExplicitMass)
{
    // A fanless (passively cooled) box: the air region carries its
    // own thermal mass, specified in the config language.
    ParseResult result = parseConfig(R"(
machine fanless {
    fan_cfm = 0;
    node comp [kind=component, mass=0.2, c=500, pmin=3, pmax=3];
    node inlet [kind=inlet];
    node air [kind=air, mass=0.02, c=1006];
    node exhaust [kind=exhaust];
    comp -- air [k=1];
    inlet -> air [fraction=1];
    air -> exhaust [fraction=1];
}
)");
    ASSERT_TRUE(result.ok()) << result.errors.front();
    const core::NodeSpec *air = result.config.machines[0].findNode("air");
    ASSERT_NE(air, nullptr);
    EXPECT_DOUBLE_EQ(air->mass, 0.02);
    EXPECT_DOUBLE_EQ(air->specificHeat, 1006.0);

    // The sealed box heats monotonically with the specified capacity.
    core::ThermalGraph graph(result.config.machines[0]);
    graph.step(100.0);
    double early = graph.temperature("air");
    graph.step(900.0);
    EXPECT_GT(graph.temperature("air"), early);
}

TEST(Parser, QuotedNamesAndDottedIdentifiers)
{
    ParseResult result = parseConfig(R"(
machine "rack 1 / server 2" {
    node "CPU 0" [kind=component, mass=0.1, c=800, pmin=1, pmax=2];
    node inlet [kind=inlet];
    node air.front [kind=air];
    node exhaust [kind=exhaust];
    "CPU 0" -- air.front [k=1];
    inlet -> air.front [fraction=1];
    air.front -> exhaust [fraction=1];
}
)");
    ASSERT_TRUE(result.ok()) << result.errors.front();
    EXPECT_EQ(result.config.machines[0].name, "rack 1 / server 2");
    EXPECT_NE(result.config.machines[0].findNode("CPU 0"), nullptr);
    EXPECT_NE(result.config.machines[0].findNode("air.front"), nullptr);
}

TEST(Parser, ScientificNotationAndNegativeTemperatures)
{
    ParseResult result = parseConfig(R"(
machine cold {
    inlet_temperature = -5.5;
    node comp [kind=component, mass=1.5e-1, c=8.96e2, pmin=0, pmax=3e1];
    node inlet [kind=inlet];
    node air [kind=air];
    node exhaust [kind=exhaust];
    comp -- air [k=7.5e-1];
    inlet -> air [fraction=1];
    air -> exhaust [fraction=1];
}
)");
    ASSERT_TRUE(result.ok()) << result.errors.front();
    const core::MachineSpec &spec = result.config.machines[0];
    EXPECT_DOUBLE_EQ(spec.inletTemperature, -5.5);
    EXPECT_DOUBLE_EQ(spec.findNode("comp")->mass, 0.15);
    EXPECT_DOUBLE_EQ(spec.findNode("comp")->maxPower, 30.0);
    EXPECT_DOUBLE_EQ(spec.heatEdges[0].k, 0.75);
}

TEST(Writer, GraphvizExportContainsEdges)
{
    std::ostringstream out;
    writeGraphviz(out, core::table1Server("srv"));
    std::string text = out.str();
    EXPECT_NE(text.find("digraph srv"), std::string::npos);
    EXPECT_NE(text.find("cpu -> cpu_air [dir=none"), std::string::npos);
    EXPECT_NE(text.find("label=\"0.15\""), std::string::npos);
    EXPECT_NE(text.find("[shape=box]"), std::string::npos);
}

} // namespace
} // namespace graphdot
} // namespace mercury
