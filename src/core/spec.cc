#include "core/spec.hh"

#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/strings.hh"
#include "util/units.hh"

namespace mercury {
namespace core {

const NodeSpec *
MachineSpec::findNode(const std::string &node_name) const
{
    for (const NodeSpec &node : nodes) {
        if (node.name == node_name)
            return &node;
    }
    return nullptr;
}

const RoomNodeSpec *
RoomSpec::findNode(const std::string &node_name) const
{
    for (const RoomNodeSpec &node : nodes) {
        if (node.name == node_name)
            return &node;
    }
    return nullptr;
}

namespace {

/** True when a node kind carries flowing air. */
bool
isAirKind(NodeKind kind)
{
    return kind == NodeKind::Air || kind == NodeKind::Inlet ||
           kind == NodeKind::Exhaust;
}

/** Name -> index of its first holder, by hash over views of the
 *  names; the names must outlive the map. */
using FirstIndex = std::unordered_map<std::string_view, uint32_t>;

/** Directed edge between node indices. */
using IndexEdge = std::pair<uint32_t, uint32_t>;

/** Kahn's algorithm: true when the graph on @p count nodes is acyclic. */
bool
isAcyclic(size_t count, const std::vector<IndexEdge> &edges)
{
    // Out-edges grouped by source (CSR), then peel zero-indegree nodes.
    std::vector<uint32_t> offsets(count + 1, 0);
    std::vector<uint32_t> indegree(count, 0);
    for (const auto &[from, to] : edges) {
        ++offsets[from + 1];
        ++indegree[to];
    }
    for (size_t i = 0; i < count; ++i)
        offsets[i + 1] += offsets[i];
    std::vector<uint32_t> targets(edges.size());
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto &[from, to] : edges)
        targets[cursor[from]++] = to;

    std::vector<uint32_t> ready;
    for (uint32_t i = 0; i < count; ++i) {
        if (indegree[i] == 0)
            ready.push_back(i);
    }
    size_t visited = 0;
    while (!ready.empty()) {
        uint32_t node = ready.back();
        ready.pop_back();
        ++visited;
        for (uint32_t slot = offsets[node]; slot < offsets[node + 1]; ++slot) {
            if (--indegree[targets[slot]] == 0)
                ready.push_back(targets[slot]);
        }
    }
    return visited == count;
}

/** Index of @p name's first holder; nullopt when none. */
std::optional<uint32_t>
lookup(const FirstIndex &index, const std::string &name)
{
    auto it = index.find(name);
    if (it == index.end())
        return std::nullopt;
    return it->second;
}

} // namespace

std::vector<std::string>
validate(const MachineSpec &spec)
{
    std::vector<std::string> problems;
    auto report = [&](const std::string &msg) {
        problems.push_back("machine '" + spec.name + "': " + msg);
    };

    if (spec.name.empty())
        problems.push_back("machine with empty name");
    if (spec.fanCfm < 0.0)
        report("negative fan flow");

    // Every node's name -> first index. Nodes with empty names are
    // indexed (an air edge may name "") but never count as declared
    // for heat edges, which look names up among named nodes only.
    FirstIndex first;
    first.reserve(spec.nodes.size());
    size_t inlets = 0;
    size_t exhausts = 0;
    for (uint32_t i = 0; i < spec.nodes.size(); ++i) {
        const NodeSpec &node = spec.nodes[i];
        bool fresh = first.emplace(node.name, i).second;
        if (node.name.empty()) {
            report("node with empty name");
            continue;
        }
        if (!fresh)
            report("duplicate node '" + node.name + "'");
        if (node.kind == NodeKind::Inlet)
            ++inlets;
        if (node.kind == NodeKind::Exhaust)
            ++exhausts;
        if (node.kind == NodeKind::Component) {
            if (node.mass <= 0.0)
                report("component '" + node.name + "' needs mass > 0");
            if (node.specificHeat <= 0.0)
                report("component '" + node.name +
                       "' needs specific heat > 0");
        }
        if (node.hasPower) {
            if (node.minPower < 0.0 || node.maxPower < node.minPower) {
                report("node '" + node.name +
                       "' has inconsistent power range");
            }
        }
    }
    if (inlets != 1)
        report(format("expected exactly 1 inlet, found %zu", inlets));
    if (exhausts != 1)
        report(format("expected exactly 1 exhaust, found %zu", exhausts));

    for (const HeatEdgeSpec &edge : spec.heatEdges) {
        if (edge.a.empty() || !lookup(first, edge.a))
            report("heat edge references unknown node '" + edge.a + "'");
        if (edge.b.empty() || !lookup(first, edge.b))
            report("heat edge references unknown node '" + edge.b + "'");
        if (edge.a == edge.b)
            report("heat edge from '" + edge.a + "' to itself");
        if (edge.k <= 0.0)
            report("heat edge " + edge.a + " -- " + edge.b +
                   " needs k > 0");
    }

    // Outgoing air fractions must sum to 1 for every air vertex that
    // has any outgoing flow; exhausts must have none. Sums accumulate
    // per first holder of the source name, in edge order.
    std::vector<double> out_frac(spec.nodes.size(), 0.0);
    std::vector<IndexEdge> air;
    air.reserve(spec.airEdges.size());
    for (const AirEdgeSpec &edge : spec.airEdges) {
        std::optional<uint32_t> from = lookup(first, edge.from);
        std::optional<uint32_t> to = lookup(first, edge.to);
        if (!from) {
            report("air edge references unknown node '" + edge.from + "'");
            continue;
        }
        if (!to) {
            report("air edge references unknown node '" + edge.to + "'");
            continue;
        }
        NodeKind from_kind = spec.nodes[*from].kind;
        NodeKind to_kind = spec.nodes[*to].kind;
        if (!isAirKind(from_kind) || !isAirKind(to_kind)) {
            report("air edge " + edge.from + " -> " + edge.to +
                   " must connect air vertices");
            continue;
        }
        if (from_kind == NodeKind::Exhaust)
            report("exhaust '" + edge.from + "' has outgoing air flow");
        if (to_kind == NodeKind::Inlet)
            report("inlet '" + edge.to + "' has incoming air flow");
        if (edge.fraction <= 0.0 || edge.fraction > 1.0) {
            report("air edge " + edge.from + " -> " + edge.to +
                   " has fraction outside (0, 1]");
        }
        out_frac[*from] += edge.fraction;
        air.emplace_back(*from, *to);
    }
    for (const NodeSpec &node : spec.nodes) {
        if (!isAirKind(node.kind) || node.kind == NodeKind::Exhaust)
            continue;
        double sum = out_frac[*lookup(first, node.name)];
        if (std::abs(sum - 1.0) > 1e-6) {
            report(format("air vertex '%s' has outgoing fractions summing "
                          "to %.6f (expected 1)", node.name.c_str(), sum));
        }
    }
    // With no problems every name is unique and every air edge joins
    // two air vertices, so the check can run over all node indices.
    if (problems.empty() && !isAcyclic(spec.nodes.size(), air))
        report("air-flow graph has a cycle");

    return problems;
}

std::vector<std::string>
validate(const RoomSpec &room, const ConfigSpec &config)
{
    std::vector<std::string> problems;
    auto report = [&](const std::string &msg) {
        problems.push_back("room '" + room.name + "': " + msg);
    };

    FirstIndex machines;
    machines.reserve(config.machines.size());
    for (uint32_t i = 0; i < config.machines.size(); ++i)
        machines.emplace(config.machines[i].name, i);

    FirstIndex first;
    first.reserve(room.nodes.size());
    bool has_source = false;
    for (uint32_t i = 0; i < room.nodes.size(); ++i) {
        const RoomNodeSpec &node = room.nodes[i];
        if (!first.emplace(node.name, i).second)
            report("duplicate node '" + node.name + "'");
        if (node.kind == RoomNodeKind::Machine &&
            !machines.count(node.machine)) {
            report("machine node '" + node.name +
                   "' references unknown machine '" + node.machine + "'");
        }
        if (node.kind == RoomNodeKind::Source)
            has_source = true;
    }
    // The sources supply the machines' fan demand (RoomModel).
    if (!has_source)
        report("no air source");

    std::vector<double> out_frac(room.nodes.size(), 0.0);
    std::vector<IndexEdge> edges;
    edges.reserve(room.edges.size());
    for (const AirEdgeSpec &edge : room.edges) {
        std::optional<uint32_t> from = lookup(first, edge.from);
        std::optional<uint32_t> to = lookup(first, edge.to);
        if (!from)
            report("edge references unknown node '" + edge.from + "'");
        if (!to)
            report("edge references unknown node '" + edge.to + "'");
        if (edge.fraction <= 0.0 || edge.fraction > 1.0) {
            report("edge " + edge.from + " -> " + edge.to +
                   " has fraction outside (0, 1]");
        }
        if (from)
            out_frac[*from] += edge.fraction;
        if (from && to)
            edges.emplace_back(*from, *to);
    }
    for (const RoomNodeSpec &node : room.nodes) {
        if (node.kind == RoomNodeKind::Sink)
            continue;
        double sum = out_frac[*lookup(first, node.name)];
        if (std::abs(sum - 1.0) > 1e-6) {
            report(format("node '%s' has outgoing fractions summing to "
                          "%.6f (expected 1)", node.name.c_str(), sum));
        }
    }
    if (problems.empty() && !isAcyclic(room.nodes.size(), edges))
        report("room air graph has a cycle");

    return problems;
}

MachineSpec
table1Server(const std::string &name)
{
    using units::kAluminumSpecificHeat;
    using units::kFr4SpecificHeat;

    MachineSpec spec;
    spec.name = name;
    spec.inletTemperature = 21.6;
    spec.fanCfm = 38.6;
    spec.initialTemperature = 21.6;

    auto component = [](std::string node_name, double mass, double c,
                        double pmin, double pmax, bool powered) {
        NodeSpec node;
        node.name = std::move(node_name);
        node.kind = NodeKind::Component;
        node.mass = mass;
        node.specificHeat = c;
        node.minPower = pmin;
        node.maxPower = pmax;
        node.hasPower = powered;
        return node;
    };
    auto air = [](std::string node_name, NodeKind kind = NodeKind::Air) {
        NodeSpec node;
        node.name = std::move(node_name);
        node.kind = kind;
        return node;
    };

    // Table 1: masses [kg], specific heats [J/(kg K)], (min, max)
    // powers [W]. The power supply and motherboard dissipate a fixed
    // load-independent power.
    spec.nodes.push_back(
        component("disk_platters", 0.336, kAluminumSpecificHeat, 9, 14,
                  true));
    spec.nodes.push_back(
        component("disk_shell", 0.505, kAluminumSpecificHeat, 0, 0, false));
    spec.nodes.push_back(
        component("cpu", 0.151, kAluminumSpecificHeat, 7, 31, true));
    spec.nodes.push_back(
        component("ps", 1.643, kAluminumSpecificHeat, 40, 40, true));
    spec.nodes.push_back(
        component("motherboard", 0.718, kFr4SpecificHeat, 4, 4, true));

    spec.nodes.push_back(air("inlet", NodeKind::Inlet));
    spec.nodes.push_back(air("disk_air"));
    spec.nodes.push_back(air("disk_air_down"));
    spec.nodes.push_back(air("ps_air"));
    spec.nodes.push_back(air("ps_air_down"));
    spec.nodes.push_back(air("void_air"));
    spec.nodes.push_back(air("cpu_air"));
    spec.nodes.push_back(air("cpu_air_down"));
    spec.nodes.push_back(air("exhaust", NodeKind::Exhaust));

    // Table 1 heat-flow constants k [W/K].
    spec.heatEdges.push_back({"disk_platters", "disk_shell", 2.0});
    spec.heatEdges.push_back({"disk_shell", "disk_air", 1.9});
    spec.heatEdges.push_back({"cpu", "cpu_air", 0.75});
    spec.heatEdges.push_back({"ps", "ps_air", 4.0});
    spec.heatEdges.push_back({"motherboard", "void_air", 10.0});
    spec.heatEdges.push_back({"motherboard", "cpu", 0.1});

    // Table 1 air fractions (Figure 1(b) topology).
    spec.airEdges.push_back({"inlet", "disk_air", 0.4});
    spec.airEdges.push_back({"inlet", "ps_air", 0.5});
    spec.airEdges.push_back({"inlet", "void_air", 0.1});
    spec.airEdges.push_back({"disk_air", "disk_air_down", 1.0});
    spec.airEdges.push_back({"disk_air_down", "void_air", 1.0});
    spec.airEdges.push_back({"ps_air", "ps_air_down", 1.0});
    spec.airEdges.push_back({"ps_air_down", "void_air", 0.85});
    spec.airEdges.push_back({"ps_air_down", "cpu_air", 0.15});
    spec.airEdges.push_back({"void_air", "cpu_air", 0.05});
    spec.airEdges.push_back({"void_air", "exhaust", 0.95});
    spec.airEdges.push_back({"cpu_air", "cpu_air_down", 1.0});
    spec.airEdges.push_back({"cpu_air_down", "exhaust", 1.0});

    return spec;
}

RoomSpec
table1Room(const std::vector<std::string> &machine_names,
           double ac_supply_temperature)
{
    RoomSpec room;
    room.name = "room";

    RoomNodeSpec ac;
    ac.name = "ac";
    ac.kind = RoomNodeKind::Source;
    ac.temperature = ac_supply_temperature;
    room.nodes.push_back(ac);

    RoomNodeSpec sink;
    sink.name = "cluster_exhaust";
    sink.kind = RoomNodeKind::Sink;
    room.nodes.push_back(sink);

    double share = 1.0 / static_cast<double>(machine_names.size());
    for (const std::string &machine_name : machine_names) {
        RoomNodeSpec node;
        node.name = machine_name;
        node.kind = RoomNodeKind::Machine;
        node.machine = machine_name;
        room.nodes.push_back(node);
        room.edges.push_back({"ac", machine_name, share});
        room.edges.push_back({machine_name, "cluster_exhaust", 1.0});
    }
    return room;
}

} // namespace core
} // namespace mercury
