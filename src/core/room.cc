#include "core/room.hh"

#include <functional>
#include <queue>

#include "core/thermal_graph.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace mercury {
namespace core {

RoomModel::RoomModel(
    const RoomSpec &spec,
    const std::unordered_map<std::string, ThermalGraph *> &machines)
{
    size_t source_count = 0;
    double total_demand = 0.0;
    for (const RoomNodeSpec &ns : spec.nodes) {
        Node node;
        node.name = ns.name;
        node.kind = ns.kind;
        node.temperature = ns.temperature;
        if (ns.kind == RoomNodeKind::Machine) {
            auto it = machines.find(ns.machine);
            if (it == machines.end() || !it->second) {
                MERCURY_PANIC("room node '", ns.name,
                              "': no live machine named '", ns.machine, "'");
            }
            node.machine = it->second;
            node.massFlow = units::cfmToKgPerS(node.machine->fanCfm());
            total_demand += node.massFlow;
            node.temperature = node.machine->exhaustTemperature();
        }
        if (ns.kind == RoomNodeKind::Source)
            ++source_count;
        byName_[ns.name] = nodes_.size();
        nodes_.push_back(node);
    }
    if (source_count == 0)
        MERCURY_PANIC("room '", spec.name, "' has no air source");

    // Approximation: each source supplies an equal share of the total
    // machine fan demand. Mixing weights are renormalized per receiving
    // vertex, so only the relative magnitudes matter (e.g. against
    // recirculated exhaust streams).
    for (Node &node : nodes_) {
        if (node.kind == RoomNodeKind::Source)
            node.massFlow = total_demand / static_cast<double>(source_count);
    }

    for (const AirEdgeSpec &es : spec.edges) {
        edges_.push_back(
            {requireNode(es.from), requireNode(es.to), es.fraction});
    }

    // Topological order (spec validation guaranteed acyclicity), always
    // taking the lowest ready id next. Out-edges grouped by source and
    // a min-heap of ready ids keep this O(E log V) on large rooms.
    std::vector<size_t> out_offsets(nodes_.size() + 1, 0);
    std::vector<size_t> in_degree(nodes_.size(), 0);
    for (const Edge &edge : edges_) {
        ++out_offsets[edge.from + 1];
        ++in_degree[edge.to];
    }
    for (size_t i = 0; i < nodes_.size(); ++i)
        out_offsets[i + 1] += out_offsets[i];
    std::vector<size_t> out_to(edges_.size());
    std::vector<size_t> cursor(out_offsets.begin(), out_offsets.end() - 1);
    for (const Edge &edge : edges_)
        out_to[cursor[edge.from]++] = edge.to;
    std::priority_queue<size_t, std::vector<size_t>, std::greater<>> ready;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (in_degree[i] == 0)
            ready.push(i);
    }
    while (!ready.empty()) {
        size_t id = ready.top();
        ready.pop();
        order_.push_back(id);
        for (size_t slot = out_offsets[id]; slot < out_offsets[id + 1];
             ++slot) {
            if (--in_degree[out_to[slot]] == 0)
                ready.push(out_to[slot]);
        }
    }
    if (order_.size() != nodes_.size())
        MERCURY_PANIC("room graph has a cycle");

    buildIncoming();
    for (size_t id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].kind == RoomNodeKind::Machine)
            machineNodes_.push_back(id);
        if (nodes_[id].kind == RoomNodeKind::Source)
            sourceNodes_.push_back(id);
    }
    for (size_t id : order_) {
        if (nodes_[id].kind == RoomNodeKind::Mix ||
            nodes_[id].kind == RoomNodeKind::Sink)
            mixOrder_.push_back(id);
    }
    bindLanes();

    // Mix vertices pass through the flow they receive; compute once.
    for (size_t id : mixOrder_) {
        Node &node = nodes_[id];
        double flow = 0.0;
        for (uint32_t slot = inOffsets_[id]; slot < inOffsets_[id + 1];
             ++slot) {
            const Edge &edge = edges_[inEdge_[slot]];
            flow += edge.fraction * nodes_[edge.from].massFlow;
        }
        node.massFlow = flow;
    }
}

void
RoomModel::buildIncoming()
{
    std::vector<uint32_t> degree(nodes_.size(), 0);
    for (const Edge &edge : edges_)
        ++degree[edge.to];
    inOffsets_.assign(nodes_.size() + 1, 0);
    for (size_t i = 0; i < nodes_.size(); ++i)
        inOffsets_[i + 1] = inOffsets_[i] + degree[i];
    inEdge_.assign(edges_.size(), 0);
    std::vector<uint32_t> cursor(inOffsets_.begin(), inOffsets_.end() - 1);
    for (size_t i = 0; i < edges_.size(); ++i)
        inEdge_[cursor[edges_[i].to]++] = static_cast<uint32_t>(i);
}

void
RoomModel::bindLanes()
{
    for (size_t id : machineNodes_) {
        Node &node = nodes_[id];
        MachineBatch &batch = node.machine->batch();
        const Topology &topo = batch.topology();
        size_t lane = node.machine->lane();
        size_t lanes = batch.lanes();
        node.inlet = &batch.temperature[topo.inlet * lanes + lane];
        node.exhaust = &batch.temperature[topo.exhaust * lanes + lane];
        // Validation forbids air into the inlet, so its mass flow is
        // exactly the fan's, cfmToKgPerS(fanCfm()).
        node.fanFlow = &batch.massFlow[topo.inlet * lanes + lane];
        node.stateVersion = &batch.stateVersion[lane];
    }
}

size_t
RoomModel::requireNode(const std::string &node_name) const
{
    auto it = byName_.find(node_name);
    if (it == byName_.end())
        MERCURY_PANIC("room: unknown node '", node_name, "'");
    return it->second;
}

void
RoomModel::step()
{
    // Machines may change their fan speeds at run time (variable-speed
    // fans, fiddle): refresh flows before mixing. Sources keep
    // supplying an equal share of the current total demand; mixing
    // vertices pass through what they receive.
    double total_demand = 0.0;
    for (size_t id : machineNodes_) {
        Node &node = nodes_[id];
        node.massFlow = *node.fanFlow;
        total_demand += node.massFlow;
    }
    for (size_t id : sourceNodes_) {
        nodes_[id].massFlow =
            total_demand / static_cast<double>(sourceNodes_.size());
    }
    for (size_t id : mixOrder_) {
        double flow = 0.0;
        for (uint32_t slot = inOffsets_[id]; slot < inOffsets_[id + 1];
             ++slot) {
            const Edge &edge = edges_[inEdge_[slot]];
            flow += edge.fraction * nodes_[edge.from].massFlow;
        }
        nodes_[id].massFlow = flow;
    }

    // March downstream. A vertex's mixed inflow temperature is the
    // flow-weighted average of its incoming streams (perfect mixing).
    for (size_t id : order_) {
        Node &node = nodes_[id];
        if (node.kind == RoomNodeKind::Source)
            continue; // fixed supply temperature

        double flow_in = 0.0;
        double mix = 0.0;
        for (uint32_t slot = inOffsets_[id]; slot < inOffsets_[id + 1];
             ++slot) {
            const Edge &edge = edges_[inEdge_[slot]];
            double contribution = edge.fraction * nodes_[edge.from].massFlow;
            flow_in += contribution;
            mix += contribution * nodes_[edge.from].temperature;
        }
        double mixed = flow_in > 1e-12 ? mix / flow_in : node.temperature;

        switch (node.kind) {
          case RoomNodeKind::Machine:
            // Per-iteration boundary delivery. Unlike
            // ThermalGraph::setInletTemperature it is not an input
            // mutation: the solver compares the delivered value with
            // the frozen inlet under its own epsilon, so a steady room
            // does not wake a quiescent machine every second (an
            // override already woke it through setInletOverride). It
            // dirties the telemetry stamp only when the value moved.
            if (node.inletOverride || flow_in > 1e-12) {
                double delivered =
                    node.inletOverride ? *node.inletOverride : mixed;
                if (*node.inlet != delivered) {
                    *node.inlet = delivered;
                    ++*node.stateVersion;
                }
            }
            // The vertex itself carries the machine's exhaust stream.
            node.temperature = *node.exhaust;
            break;
          case RoomNodeKind::Mix:
          case RoomNodeKind::Sink:
            if (flow_in > 1e-12)
                node.temperature = mixed;
            break;
          case RoomNodeKind::Source:
            break;
        }
    }
}

double
RoomModel::temperature(const std::string &node_name) const
{
    return nodes_[requireNode(node_name)].temperature;
}

void
RoomModel::setSourceTemperature(const std::string &node_name, double celsius)
{
    Node &node = nodes_[requireNode(node_name)];
    if (node.kind != RoomNodeKind::Source)
        MERCURY_PANIC("room node '", node_name, "' is not a source");
    node.temperature = celsius;
}

void
RoomModel::setEdgeFraction(const std::string &from, const std::string &to,
                           double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        MERCURY_PANIC("room edge fraction ", fraction, " outside [0, 1]");
    size_t nf = requireNode(from);
    size_t nt = requireNode(to);
    for (Edge &edge : edges_) {
        if (edge.from == nf && edge.to == nt) {
            edge.fraction = fraction;
            return;
        }
    }
    MERCURY_PANIC("room: no edge ", from, " -> ", to);
}

RoomModel::EdgeView
RoomModel::edge(size_t index) const
{
    const Edge &e = edges_.at(index);
    return {nodes_[e.from].name, nodes_[e.to].name, e.fraction};
}

void
RoomModel::setEdgeFraction(size_t index, double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        MERCURY_PANIC("room edge fraction ", fraction, " outside [0, 1]");
    edges_.at(index).fraction = fraction;
}

void
RoomModel::setInletOverride(const std::string &machine_name,
                            std::optional<double> celsius)
{
    Node &node = nodes_[requireNode(machine_name)];
    if (node.kind != RoomNodeKind::Machine)
        MERCURY_PANIC("room node '", machine_name, "' is not a machine");
    node.inletOverride = celsius;
    if (celsius)
        node.machine->setInletTemperature(*celsius);
}

std::optional<double>
RoomModel::inletOverride(const std::string &machine_name) const
{
    const Node &node = nodes_[requireNode(machine_name)];
    if (node.kind != RoomNodeKind::Machine)
        MERCURY_PANIC("room node '", machine_name, "' is not a machine");
    return node.inletOverride;
}

bool
RoomModel::hasNode(const std::string &node_name) const
{
    return byName_.count(node_name) != 0;
}

bool
RoomModel::isSource(const std::string &node_name) const
{
    auto it = byName_.find(node_name);
    return it != byName_.end() &&
           nodes_[it->second].kind == RoomNodeKind::Source;
}

bool
RoomModel::hasEdge(const std::string &from, const std::string &to) const
{
    auto nf = byName_.find(from);
    auto nt = byName_.find(to);
    if (nf == byName_.end() || nt == byName_.end())
        return false;
    for (const Edge &edge : edges_) {
        if (edge.from == nf->second && edge.to == nt->second)
            return true;
    }
    return false;
}

std::vector<std::string>
RoomModel::nodeNames() const
{
    std::vector<std::string> out;
    out.reserve(nodes_.size());
    for (const Node &node : nodes_)
        out.push_back(node.name);
    return out;
}

} // namespace core
} // namespace mercury
