#include "graphdot/writer.hh"

#include <cctype>
#include <charconv>
#include <ostream>
#include <sstream>

#include "util/strings.hh"

namespace mercury {
namespace graphdot {

namespace {

/** Quote a name when it is not a bare identifier. */
std::string
quoteName(const std::string &name)
{
    bool bare = !name.empty();
    for (char ch : name) {
        if (!(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
              ch == '.')) {
            bare = false;
            break;
        }
    }
    if (bare && !std::isdigit(static_cast<unsigned char>(name[0])))
        return name;
    std::string out = "\"";
    for (char ch : name) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    out += '"';
    return out;
}

const char *
kindName(core::NodeKind kind)
{
    switch (kind) {
      case core::NodeKind::Component: return "component";
      case core::NodeKind::Air:       return "air";
      case core::NodeKind::Inlet:     return "inlet";
      case core::NodeKind::Exhaust:   return "exhaust";
    }
    return "?";
}

/**
 * Shortest text that parses back to exactly @p value, so a written
 * config re-reads with every constant bitwise equal. Six significant
 * digits are not enough: a 4096-machine room's 1/4096 fractions would
 * re-read summing to 1.000002, past validate()'s tolerance.
 */
std::string
exact(double value)
{
    char text[32];
    return std::string(text,
                       std::to_chars(text, text + sizeof(text), value).ptr);
}

} // namespace

void
writeMachine(std::ostream &out, const core::MachineSpec &spec)
{
    out << "machine " << quoteName(spec.name) << " {\n";
    out << "    inlet_temperature = " << exact(spec.inletTemperature)
        << ";\n";
    out << "    fan_cfm = " << exact(spec.fanCfm) << ";\n";
    out << "    initial_temperature = " << exact(spec.initialTemperature)
        << ";\n";
    out << '\n';
    for (const core::NodeSpec &node : spec.nodes) {
        out << "    node " << quoteName(node.name) << " [kind="
            << kindName(node.kind);
        if (node.kind == core::NodeKind::Component) {
            out << ", mass=" << exact(node.mass)
                << ", c=" << exact(node.specificHeat);
        }
        if (node.hasPower)
            out << ", pmin=" << exact(node.minPower)
                << ", pmax=" << exact(node.maxPower);
        if (node.initialTemperature)
            out << ", temperature=" << exact(*node.initialTemperature);
        out << "];\n";
    }
    out << '\n';
    for (const core::HeatEdgeSpec &edge : spec.heatEdges) {
        out << "    " << quoteName(edge.a) << " -- " << quoteName(edge.b)
            << " [k=" << exact(edge.k) << "];\n";
    }
    out << '\n';
    for (const core::AirEdgeSpec &edge : spec.airEdges) {
        out << "    " << quoteName(edge.from) << " -> " << quoteName(edge.to)
            << " [fraction=" << exact(edge.fraction) << "];\n";
    }
    out << "}\n";
}

void
writeRoom(std::ostream &out, const core::RoomSpec &room)
{
    out << "room " << quoteName(room.name) << " {\n";
    for (const core::RoomNodeSpec &node : room.nodes) {
        switch (node.kind) {
          case core::RoomNodeKind::Source:
            out << "    source " << quoteName(node.name)
                << " [temperature=" << exact(node.temperature) << "];\n";
            break;
          case core::RoomNodeKind::Sink:
            out << "    sink " << quoteName(node.name) << ";\n";
            break;
          case core::RoomNodeKind::Mix:
            out << "    mix " << quoteName(node.name) << ";\n";
            break;
          case core::RoomNodeKind::Machine:
            out << "    machine " << quoteName(node.name) << " uses "
                << quoteName(node.machine) << ";\n";
            break;
        }
    }
    out << '\n';
    for (const core::AirEdgeSpec &edge : room.edges) {
        out << "    " << quoteName(edge.from) << " -> " << quoteName(edge.to)
            << " [fraction=" << exact(edge.fraction) << "];\n";
    }
    out << "}\n";
}

void
writeConfig(std::ostream &out, const core::ConfigSpec &config)
{
    for (const core::MachineSpec &machine : config.machines) {
        writeMachine(out, machine);
        out << '\n';
    }
    if (config.room)
        writeRoom(out, *config.room);
}

std::string
toText(const core::ConfigSpec &config)
{
    std::ostringstream out;
    writeConfig(out, config);
    return out.str();
}

void
writeGraphviz(std::ostream &out, const core::MachineSpec &spec)
{
    out << "digraph " << quoteName(spec.name) << " {\n";
    out << "    rankdir=LR;\n";
    for (const core::NodeSpec &node : spec.nodes) {
        const char *shape = "ellipse";
        if (node.kind == core::NodeKind::Component)
            shape = "box";
        else if (node.kind == core::NodeKind::Inlet ||
                 node.kind == core::NodeKind::Exhaust)
            shape = "diamond";
        out << "    " << quoteName(node.name) << " [shape=" << shape
            << "];\n";
    }
    for (const core::HeatEdgeSpec &edge : spec.heatEdges) {
        out << "    " << quoteName(edge.a) << " -> " << quoteName(edge.b)
            << format(" [dir=none, style=dashed, label=\"k=%g\"];\n",
                      edge.k);
    }
    for (const core::AirEdgeSpec &edge : spec.airEdges) {
        out << "    " << quoteName(edge.from) << " -> " << quoteName(edge.to)
            << format(" [label=\"%g\"];\n", edge.fraction);
    }
    out << "}\n";
}

} // namespace graphdot
} // namespace mercury
