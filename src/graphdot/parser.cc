#include "graphdot/parser.hh"

#include <fstream>
#include <string_view>
#include <unordered_set>

#include "graphdot/lexer.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace graphdot {

namespace {

/** One parsed `ident = value` attribute. */
struct Attribute
{
    std::string_view name;
    Token value;
};

/**
 * Recursive-descent parser that pulls tokens from the lexer through a
 * two-token lookahead window; no token stream is ever materialized.
 */
class Parser
{
  public:
    explicit Parser(Lexer &lexer)
        : lexer_(lexer)
    {
        ahead_[0] = lexer_.next();
        ahead_[1] = lexer_.next();
    }

    ParseResult
    run()
    {
        while (!at(TokenKind::EndOfFile)) {
            if (atKeyword("machine")) {
                parseMachine();
            } else if (atKeyword("room") || atKeyword("cluster")) {
                parseRoom();
            } else {
                error("expected 'machine', 'room' or 'cluster'");
                synchronizeToTopLevel();
            }
        }
        return std::move(result_);
    }

  private:
    /** Token @p ahead positions on (0 or 1); EndOfFile past the end. */
    const Token &peek(size_t ahead = 0) const { return ahead_[ahead]; }

    /** Consume the current token and return it. */
    Token
    advance()
    {
        Token token = ahead_[0];
        ahead_[0] = ahead_[1];
        ahead_[1] = lexer_.next();
        return token;
    }

    bool at(TokenKind kind) const { return peek().kind == kind; }

    bool
    atKeyword(std::string_view word) const
    {
        return at(TokenKind::Identifier) && peek().text == word;
    }

    bool
    accept(TokenKind kind)
    {
        if (!at(kind))
            return false;
        advance();
        return true;
    }

    void
    expect(TokenKind kind, const char *context)
    {
        if (at(kind)) {
            advance();
            return;
        }
        error(std::string("expected ") + tokenKindName(kind) + " " +
              context + ", found " + tokenKindName(peek().kind));
    }

    void
    error(const std::string &message)
    {
        const Token &token = peek();
        result_.errors.push_back(
            format("line %d:%d: ", token.line, token.column) + message);
    }

    /** Skip to the next plausible top-level declaration. */
    void
    synchronizeToTopLevel()
    {
        while (!at(TokenKind::EndOfFile) && !atKeyword("machine") &&
               !atKeyword("room") && !atKeyword("cluster")) {
            advance();
        }
    }

    /** Skip to just past the next semicolon (or closing brace). */
    void
    synchronizeToStatement()
    {
        while (!at(TokenKind::EndOfFile) && !at(TokenKind::RBrace)) {
            if (accept(TokenKind::Semicolon))
                return;
            advance();
        }
    }

    /** name := identifier | string */
    std::string_view
    parseName(const char *context)
    {
        if (at(TokenKind::Identifier) || at(TokenKind::String))
            return advance().text;
        error(std::string("expected a name ") + context + ", found " +
              tokenKindName(peek().kind));
        return {};
    }

    /**
     * attrs := '[' ident '=' value (',' ident '=' value)* ']'
     * The list is reused from call to call, so the returned reference
     * is valid until the next parseAttributes().
     */
    const std::vector<Attribute> &
    parseAttributes()
    {
        attrs_.clear();
        if (!accept(TokenKind::LBracket))
            return attrs_;
        while (!at(TokenKind::RBracket) && !at(TokenKind::EndOfFile)) {
            Attribute attr;
            attr.name = parseName("for an attribute");
            expect(TokenKind::Equals, "after attribute name");
            if (at(TokenKind::Number) || at(TokenKind::String) ||
                at(TokenKind::Identifier)) {
                attr.value = advance();
            } else {
                error("expected attribute value, found " +
                      std::string(tokenKindName(peek().kind)));
            }
            attrs_.push_back(attr);
            if (!accept(TokenKind::Comma))
                break;
        }
        expect(TokenKind::RBracket, "to close attribute list");
        return attrs_;
    }

    double
    numericAttr(const Attribute &attr)
    {
        if (attr.value.kind != TokenKind::Number) {
            error("attribute '" + std::string(attr.name) +
                  "' needs a numeric value");
            return 0.0;
        }
        return attr.value.number;
    }

    void
    parseMachine()
    {
        advance(); // 'machine'
        core::MachineSpec spec;
        spec.name = parseName("for the machine");
        expect(TokenKind::LBrace, "to open the machine body");
        while (!at(TokenKind::RBrace) && !at(TokenKind::EndOfFile)) {
            if (atKeyword("node")) {
                parseNode(spec);
            } else if (at(TokenKind::Identifier) || at(TokenKind::String)) {
                // Either a setting (`ident = value ;`) or an edge.
                if (peek(1).kind == TokenKind::Equals) {
                    parseSetting(spec);
                } else {
                    parseEdge(spec);
                }
            } else {
                error("unexpected " +
                      std::string(tokenKindName(peek().kind)) +
                      " in machine body");
                synchronizeToStatement();
            }
        }
        expect(TokenKind::RBrace, "to close the machine body");
        result_.config.machines.push_back(std::move(spec));
    }

    void
    parseSetting(core::MachineSpec &spec)
    {
        std::string_view name = advance().text;
        expect(TokenKind::Equals, "in setting");
        if (!at(TokenKind::Number)) {
            error("setting '" + std::string(name) +
                  "' needs a numeric value");
            synchronizeToStatement();
            return;
        }
        double value = advance().number;
        expect(TokenKind::Semicolon, "after setting");
        if (name == "inlet_temperature") {
            spec.inletTemperature = value;
        } else if (name == "fan_cfm") {
            spec.fanCfm = value;
        } else if (name == "initial_temperature") {
            spec.initialTemperature = value;
        } else {
            error("unknown machine setting '" + std::string(name) + "'");
        }
    }

    void
    parseNode(core::MachineSpec &spec)
    {
        advance(); // 'node'
        core::NodeSpec node;
        node.name = parseName("for the node");
        node.kind = core::NodeKind::Component;
        for (const Attribute &attr : parseAttributes()) {
            if (attr.name == "kind") {
                std::string kind = toLower(attr.value.text);
                if (kind == "component") {
                    node.kind = core::NodeKind::Component;
                } else if (kind == "air") {
                    node.kind = core::NodeKind::Air;
                } else if (kind == "inlet") {
                    node.kind = core::NodeKind::Inlet;
                } else if (kind == "exhaust") {
                    node.kind = core::NodeKind::Exhaust;
                } else {
                    error("unknown node kind '" +
                          std::string(attr.value.text) + "'");
                }
            } else if (attr.name == "mass") {
                node.mass = numericAttr(attr);
            } else if (attr.name == "c" || attr.name == "specific_heat") {
                node.specificHeat = numericAttr(attr);
            } else if (attr.name == "pmin") {
                node.minPower = numericAttr(attr);
                node.hasPower = true;
            } else if (attr.name == "pmax") {
                node.maxPower = numericAttr(attr);
                node.hasPower = true;
            } else if (attr.name == "temperature") {
                node.initialTemperature = numericAttr(attr);
            } else {
                error("unknown node attribute '" + std::string(attr.name) +
                      "'");
            }
        }
        expect(TokenKind::Semicolon, "after node declaration");
        spec.nodes.push_back(std::move(node));
    }

    void
    parseEdge(core::MachineSpec &spec)
    {
        std::string from(parseName("for the edge source"));
        bool heat = false;
        if (accept(TokenKind::HeatEdge)) {
            heat = true;
        } else if (accept(TokenKind::AirEdge)) {
            heat = false;
        } else {
            error("expected '--' or '->' after '" + from + "'");
            synchronizeToStatement();
            return;
        }
        std::string to(parseName("for the edge target"));
        const std::vector<Attribute> &attrs = parseAttributes();
        expect(TokenKind::Semicolon, "after edge");
        if (heat) {
            core::HeatEdgeSpec edge{std::move(from), std::move(to), 0.0};
            for (const Attribute &attr : attrs) {
                if (attr.name == "k") {
                    edge.k = numericAttr(attr);
                } else {
                    error("unknown heat-edge attribute '" +
                          std::string(attr.name) + "'");
                }
            }
            if (edge.k <= 0.0) {
                error("heat edge " + edge.a + " -- " + edge.b +
                      " needs k > 0");
            }
            spec.heatEdges.push_back(std::move(edge));
        } else {
            core::AirEdgeSpec edge{std::move(from), std::move(to), 0.0};
            for (const Attribute &attr : attrs) {
                if (attr.name == "fraction") {
                    edge.fraction = numericAttr(attr);
                } else {
                    error("unknown air-edge attribute '" +
                          std::string(attr.name) + "'");
                }
            }
            if (edge.fraction <= 0.0) {
                error("air edge " + edge.from + " -> " + edge.to +
                      " needs fraction > 0");
            }
            spec.airEdges.push_back(std::move(edge));
        }
    }

    void
    parseRoom()
    {
        advance(); // 'room' | 'cluster'
        core::RoomSpec room;
        room.name = parseName("for the room");
        expect(TokenKind::LBrace, "to open the room body");
        while (!at(TokenKind::RBrace) && !at(TokenKind::EndOfFile)) {
            if (atKeyword("source")) {
                advance();
                core::RoomNodeSpec node;
                node.kind = core::RoomNodeKind::Source;
                node.name = parseName("for the source");
                for (const Attribute &attr : parseAttributes()) {
                    if (attr.name == "temperature") {
                        node.temperature = numericAttr(attr);
                    } else {
                        error("unknown source attribute '" +
                              std::string(attr.name) + "'");
                    }
                }
                expect(TokenKind::Semicolon, "after source");
                room.nodes.push_back(std::move(node));
            } else if (atKeyword("sink") || atKeyword("mix")) {
                bool sink = peek().text == "sink";
                advance();
                core::RoomNodeSpec node;
                node.kind = sink ? core::RoomNodeKind::Sink
                                 : core::RoomNodeKind::Mix;
                node.name = parseName(sink ? "for the sink" : "for the mix");
                expect(TokenKind::Semicolon, "after room node");
                room.nodes.push_back(std::move(node));
            } else if (atKeyword("machine")) {
                advance();
                core::RoomNodeSpec node;
                node.kind = core::RoomNodeKind::Machine;
                node.name = parseName("for the machine node");
                if (atKeyword("uses")) {
                    advance();
                    node.machine = parseName("for the machine template");
                } else {
                    // `machine m1;` means the node name is the template.
                    node.machine = node.name;
                }
                expect(TokenKind::Semicolon, "after machine node");
                room.nodes.push_back(std::move(node));
            } else if (at(TokenKind::Identifier) || at(TokenKind::String)) {
                core::AirEdgeSpec edge;
                edge.from = parseName("for the edge source");
                expect(TokenKind::AirEdge, "in room edge");
                edge.to = parseName("for the edge target");
                for (const Attribute &attr : parseAttributes()) {
                    if (attr.name == "fraction") {
                        edge.fraction = numericAttr(attr);
                    } else {
                        error("unknown room-edge attribute '" +
                              std::string(attr.name) + "'");
                    }
                }
                expect(TokenKind::Semicolon, "after room edge");
                room.edges.push_back(std::move(edge));
            } else {
                error("unexpected " +
                      std::string(tokenKindName(peek().kind)) +
                      " in room body");
                synchronizeToStatement();
            }
        }
        expect(TokenKind::RBrace, "to close the room body");
        if (result_.config.room) {
            error("multiple room declarations (only one is supported)");
        } else {
            result_.config.room = std::move(room);
        }
    }

    Lexer &lexer_;
    Token ahead_[2];
    std::vector<Attribute> attrs_; //!< parseAttributes()'s reused list
    ParseResult result_;
};

} // namespace

ParseResult
parseConfig(const std::string &source)
{
    Lexer lexer(source);
    ParseResult result = Parser(lexer).run();
    // Lexer errors come first.
    result.errors.insert(result.errors.begin(), lexer.errors().begin(),
                         lexer.errors().end());
    // Semantic validation of everything that parsed. Runs even after
    // syntax errors so the user sees all problems in one pass. Machine
    // names must be unique: the solver and the room look machines up
    // by name. An empty name is already an error of its own.
    std::unordered_set<std::string_view> names;
    for (const core::MachineSpec &machine : result.config.machines) {
        if (!machine.name.empty() && !names.insert(machine.name).second)
            result.errors.push_back("duplicate machine '" + machine.name +
                                    "'");
        for (const std::string &problem : validate(machine))
            result.errors.push_back(problem);
    }
    if (result.config.room) {
        for (const std::string &problem :
             validate(*result.config.room, result.config)) {
            result.errors.push_back(problem);
        }
    }
    return result;
}

core::ConfigSpec
loadConfigFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open config file '", path, "'");
    ParseResult result = parseConfig(readStream(in));
    if (!result.ok()) {
        std::string joined;
        for (const std::string &err : result.errors)
            joined += "\n  " + err;
        fatal("errors in config '", path, "':", joined);
    }
    return std::move(result.config);
}

} // namespace graphdot
} // namespace mercury
