/**
 * @file
 * Seeded config fuzzer: mutates the token stream of
 * configs/table1_cluster.dot (drops, duplicates and swaps tokens, and
 * writes hostile numbers) and holds parseConfig and the solver to
 * three properties on every case:
 *   - parsing never crashes;
 *   - every syntax error names a line:col inside the input;
 *   - every accepted config builds a Solver that steps 10 iterations,
 *     or is refused by the substep cap (ThermalGraph::kMaxSubsteps).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hh"
#include "core/thermal_graph.hh"
#include "graphdot/lexer.hh"
#include "graphdot/parser.hh"
#include "util/random.hh"

namespace mercury {
namespace graphdot {
namespace {

constexpr int kCases = 6000;
constexpr uint64_t kSeed = 0x5eed2026;

const char *const kHostileNumbers[] = {"0", "-1", "1e308", "4.9e-324",
                                       "1e999"};

/** The tokens of @p source as spellings that lex back to themselves. */
std::vector<std::string>
spellings(const std::string &source)
{
    Lexer lexer(source);
    std::vector<std::string> out;
    for (Token token = lexer.next(); token.kind != TokenKind::EndOfFile;
         token = lexer.next()) {
        if (token.kind == TokenKind::String)
            out.push_back("\"" + std::string(token.text) + "\"");
        else
            out.push_back(std::string(token.text));
    }
    EXPECT_TRUE(lexer.errors().empty());
    return out;
}

/** Join tokens on spaces, breaking lines after ';', '{' and '}'. */
std::string
render(const std::vector<std::string> &tokens)
{
    std::string text;
    for (const std::string &token : tokens) {
        text += token;
        bool eol = token == ";" || token == "{" || token == "}";
        text += eol ? "\n" : " ";
    }
    return text;
}

/** True when @p error's "line L:C:" lies inside @p source (column
 *  one past a line's end is the end-of-line/end-of-file position). */
bool
positionInside(const std::string &error, const std::string &source)
{
    int line = 0;
    int column = 0;
    if (std::sscanf(error.c_str(), "line %d:%d:", &line, &column) != 2)
        return false;
    std::vector<size_t> lengths{0};
    for (char ch : source) {
        if (ch == '\n')
            lengths.push_back(0);
        else
            ++lengths.back();
    }
    return line >= 1 && size_t(line) <= lengths.size() && column >= 1 &&
           size_t(column) <= lengths[size_t(line) - 1] + 1;
}

TEST(ConfigFuzz, MutatedTable1ClusterNeverCrashesOrStepsUnstably)
{
    std::ifstream in(MERCURY_CONFIG_DIR "/table1_cluster.dot");
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::vector<std::string> base = spellings(buffer.str());
    ASSERT_GT(base.size(), 100u);

    Rng rng(kSeed);
    int accepted = 0;
    int refused = 0;
    int stepped = 0;
    for (int i = 0; i < kCases; ++i) {
        std::vector<std::string> tokens = base;
        // Half the cases only write hostile numbers, which mostly keep
        // the syntax and so reach the solver; the rest edit structure.
        bool numbers_only = rng.uniformInt(0, 1) == 0;
        int edits = int(rng.uniformInt(1, 3));
        for (int e = 0; e < edits && !tokens.empty(); ++e) {
            int64_t last = int64_t(tokens.size()) - 1;
            size_t at = size_t(rng.uniformInt(0, last));
            switch (numbers_only ? 3 : rng.uniformInt(0, 3)) {
              case 0:
                tokens.erase(tokens.begin() + long(at));
                break;
              case 1:
                tokens.insert(tokens.begin() + long(at), tokens[at]);
                break;
              case 2:
                std::swap(tokens[at], tokens[size_t(rng.uniformInt(0, last))]);
                break;
              default: {
                // A hostile value in place of some number.
                std::vector<size_t> numbers;
                for (size_t t = 0; t < tokens.size(); ++t) {
                    if (std::isdigit(static_cast<unsigned char>(
                            tokens[t].back())))
                        numbers.push_back(t);
                }
                if (numbers.empty())
                    break;
                size_t pick = numbers[size_t(rng.uniformInt(
                    0, int64_t(numbers.size()) - 1))];
                tokens[pick] = kHostileNumbers[rng.uniformInt(0, 4)];
              }
            }
        }
        const std::string source = render(tokens);
        SCOPED_TRACE("case " + std::to_string(i) + ":\n" + source);

        ParseResult result = parseConfig(source);
        for (const std::string &error : result.errors) {
            if (error.rfind("line ", 0) == 0) {
                ASSERT_TRUE(positionInside(error, source)) << error;
            }
        }
        if (!result.ok())
            continue;
        ++accepted;

        std::string refusal;
        for (const core::MachineSpec &machine : result.config.machines) {
            refusal = core::ThermalGraph(machine).substepCapError(1.0);
            if (!refusal.empty())
                break;
        }
        if (!refusal.empty()) {
            EXPECT_NE(refusal.find("kMaxSubsteps"), std::string::npos);
            ++refused;
            continue;
        }
        core::Solver solver(core::SolverConfig{1.0, 1});
        for (const core::MachineSpec &machine : result.config.machines)
            solver.addMachine(machine);
        if (result.config.room)
            solver.setRoom(*result.config.room);
        for (int it = 0; it < 10; ++it)
            solver.iterate();
        ASSERT_EQ(solver.iterations(), 10u);
        ++stepped;
    }
    // The mutations must reach both the accepting and the refusing
    // side, or the properties above say little.
    EXPECT_EQ(accepted, refused + stepped);
    EXPECT_GT(stepped, 100);
    EXPECT_GT(refused, 10);
    std::printf("%d cases: %d accepted (%d stepped, %d refused by the "
                "substep cap)\n",
                kCases, accepted, stepped, refused);
}

} // namespace
} // namespace graphdot
} // namespace mercury
