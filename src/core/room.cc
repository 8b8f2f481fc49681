#include "core/room.hh"

#include <bit>
#include <functional>
#include <queue>

#include "core/thermal_graph.hh"
#include "util/logging.hh"

namespace mercury {
namespace core {

RoomModel::RoomModel(
    const RoomSpec &spec,
    const std::unordered_map<std::string, ThermalGraph *> &machines)
{
    for (const RoomNodeSpec &ns : spec.nodes) {
        uint32_t id = static_cast<uint32_t>(nodes_.size());
        Node node;
        node.name = ns.name;
        node.kind = ns.kind;
        double temperature = ns.temperature;
        uint32_t machine = kMixVertex;
        if (ns.kind == RoomNodeKind::Machine) {
            auto it = machines.find(ns.machine);
            if (it == machines.end() || !it->second) {
                MERCURY_PANIC("room node '", ns.name,
                              "': no live machine named '", ns.machine, "'");
            }
            node.machine = it->second;
            temperature = node.machine->exhaustTemperature();
            machine = static_cast<uint32_t>(machineVertex_.size());
            machineVertex_.push_back(id);
        }
        if (ns.kind == RoomNodeKind::Source) {
            machine = kSourceVertex;
            sourceNodes_.push_back(id);
        }
        byName_[ns.name] = id;
        nodes_.push_back(std::move(node));
        temperature_.push_back(temperature);
        machineOf_.push_back(machine);
    }
    if (sourceNodes_.empty())
        MERCURY_PANIC("room '", spec.name, "' has no air source");
    size_t count = nodes_.size();
    // Flows are filled in by the first step(): each source supplies an
    // equal share of the total machine fan demand.
    massFlow_.assign(count, 0.0);

    for (const AirEdgeSpec &es : spec.edges) {
        edges_.push_back({static_cast<uint32_t>(requireNode(es.from)),
                          static_cast<uint32_t>(requireNode(es.to)), 0});
    }

    // Topological order (spec validation guaranteed acyclicity), always
    // taking the lowest ready id next. Out-edges grouped by source and
    // a min-heap of ready ids keep this O(E log V) on large rooms.
    std::vector<uint32_t> in_degree(count, 0);
    outOffsets_.assign(count + 1, 0);
    for (const Edge &edge : edges_) {
        ++outOffsets_[edge.from + 1];
        ++in_degree[edge.to];
    }
    for (size_t i = 0; i < count; ++i)
        outOffsets_[i + 1] += outOffsets_[i];
    std::vector<uint32_t> out_to(edges_.size());
    std::vector<uint32_t> cursor(outOffsets_.begin(), outOffsets_.end() - 1);
    for (const Edge &edge : edges_)
        out_to[cursor[edge.from]++] = edge.to;
    std::vector<uint32_t> remaining = in_degree;
    std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>>
        ready;
    for (uint32_t i = 0; i < count; ++i) {
        if (remaining[i] == 0)
            ready.push(i);
    }
    while (!ready.empty()) {
        uint32_t id = ready.top();
        ready.pop();
        order_.push_back(id);
        for (uint32_t k = outOffsets_[id]; k < outOffsets_[id + 1]; ++k) {
            if (--remaining[out_to[k]] == 0)
                ready.push(out_to[k]);
        }
    }
    if (order_.size() != count)
        MERCURY_PANIC("room graph has a cycle");
    position_.assign(count, 0);
    for (uint32_t p = 0; p < count; ++p)
        position_[order_[p]] = p;
    outPosition_.resize(edges_.size());
    for (uint32_t k = 0; k < edges_.size(); ++k)
        outPosition_[k] = position_[out_to[k]];

    // In-slots per receiving vertex, in edge spec order.
    inOffsets_.assign(count + 1, 0);
    for (size_t i = 0; i < count; ++i)
        inOffsets_[i + 1] = inOffsets_[i] + in_degree[i];
    inFrom_.assign(edges_.size(), 0);
    inFraction_.assign(edges_.size(), 0.0);
    cursor.assign(inOffsets_.begin(), inOffsets_.end() - 1);
    for (size_t i = 0; i < edges_.size(); ++i) {
        Edge &edge = edges_[i];
        edge.slot = cursor[edge.to]++;
        inFrom_[edge.slot] = edge.from;
        inFraction_[edge.slot] = spec.edges[i].fraction;
    }

    for (uint32_t id : order_) {
        if (nodes_[id].kind == RoomNodeKind::Mix ||
            nodes_[id].kind == RoomNodeKind::Sink)
            mixOrder_.push_back(id);
    }
    size_t machine_count = machineVertex_.size();
    inlet_.assign(machine_count, nullptr);
    exhaust_.assign(machine_count, nullptr);
    fanFlow_.assign(machine_count, nullptr);
    stateVersion_.assign(machine_count, nullptr);
    lastInlet_.assign(machine_count, 0.0);
    bindLanes();

    // The first step computes every vertex.
    dirty_.assign((count + 63) / 64, 0);
    for (uint32_t id = 0; id < count; ++id)
        markDirty(id);
}

void
RoomModel::bindLanes()
{
    for (size_t m = 0; m < machineVertex_.size(); ++m) {
        ThermalGraph &graph = *nodes_[machineVertex_[m]].machine;
        MachineBatch &batch = graph.batch();
        const Topology &topo = batch.topology();
        size_t lane = graph.lane();
        size_t lanes = batch.lanes();
        inlet_[m] = &batch.temperature[topo.inlet * lanes + lane];
        exhaust_[m] = &batch.temperature[topo.exhaust * lanes + lane];
        // Validation forbids air into the inlet, so its mass flow is
        // exactly the fan's, cfmToKgPerS(fanCfm()).
        fanFlow_[m] = &batch.massFlow[topo.inlet * lanes + lane];
        stateVersion_[m] = &batch.stateVersion[lane];
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

namespace {

/** True when @p a and @p b differ in any bit: recomputing from inputs
 *  whose bits are all unchanged reproduces the same result. */
inline bool
bitsDiffer(double a, double b)
{
    return std::bit_cast<uint64_t>(a) != std::bit_cast<uint64_t>(b);
}

} // namespace

void
RoomModel::step()
{
    // What moved since the last step, read straight from the lanes: a
    // machine vertex carries its exhaust stream; an inlet that no
    // longer holds what the room left there was rewritten (a regroup's
    // copy keeps the value; a restore or a direct write does not);
    // a fan flow differs from the cached one.
    bool flows_moved = flowsStale_;
    for (size_t m = 0; m < machineVertex_.size(); ++m) {
        uint32_t v = machineVertex_[m];
        double exhaust = *exhaust_[m];
        if (bitsDiffer(exhaust, temperature_[v])) {
            temperature_[v] = exhaust;
            markReceivers(v);
        }
        if (*inlet_[m] != lastInlet_[m])
            markDirty(v);
        flows_moved |= bitsDiffer(*fanFlow_[m], massFlow_[v]);
    }
    if (flows_moved)
        recomputeFlows();
    flowsStale_ = false;

    // March downstream through the dirty vertices. Visiting a vertex
    // may mark later positions, in this word or a later one.
    for (size_t word = 0; word < dirty_.size(); ++word) {
        while (uint64_t bits = dirty_[word]) {
            dirty_[word] = bits & (bits - 1);
            visit(order_[word * 64 + std::countr_zero(bits)]);
        }
    }
}

void
RoomModel::recomputeFlows()
{
    // Machines may change their fan speeds at run time (variable-speed
    // fans, fiddle). Sources keep supplying an equal share of the
    // current total demand; mixing vertices pass through what they
    // receive.
    auto set_flow = [&](uint32_t v, double flow) {
        if (bitsDiffer(flow, massFlow_[v])) {
            massFlow_[v] = flow;
            markReceivers(v);
        }
    };
    double total_demand = 0.0;
    for (size_t m = 0; m < machineVertex_.size(); ++m) {
        double flow = *fanFlow_[m];
        set_flow(machineVertex_[m], flow);
        total_demand += flow;
    }
    for (uint32_t id : sourceNodes_)
        set_flow(id, total_demand / static_cast<double>(sourceNodes_.size()));
    for (uint32_t id : mixOrder_) {
        double flow = 0.0;
        for (uint32_t slot = inOffsets_[id]; slot < inOffsets_[id + 1];
             ++slot)
            flow += inFraction_[slot] * massFlow_[inFrom_[slot]];
        set_flow(id, flow);
    }
}

void
RoomModel::visit(uint32_t v)
{
    uint32_t m = machineOf_[v];
    if (m == kSourceVertex)
        return; // fixed supply temperature

    // A vertex's mixed inflow temperature is the flow-weighted average
    // of its incoming streams (perfect mixing).
    double flow_in = 0.0;
    double mix = 0.0;
    for (uint32_t slot = inOffsets_[v]; slot < inOffsets_[v + 1]; ++slot) {
        uint32_t from = inFrom_[slot];
        double contribution = inFraction_[slot] * massFlow_[from];
        flow_in += contribution;
        mix += contribution * temperature_[from];
    }
    bool flowing = flow_in > 1e-12;
    double mixed = flowing ? mix / flow_in : temperature_[v];

    if (m == kMixVertex) {
        // Mix or Sink: with no inflow it keeps its last temperature.
        if (bitsDiffer(mixed, temperature_[v])) {
            temperature_[v] = mixed;
            markReceivers(v);
        }
        return;
    }
    // Per-iteration boundary delivery. Unlike
    // ThermalGraph::setInletTemperature it is not an input mutation:
    // the solver compares the delivered value with the frozen inlet
    // under its own epsilon, so a steady room does not wake a
    // quiescent machine every second (an override already woke it
    // through setInletOverride). It dirties the telemetry stamp only
    // when the value moved. The vertex's own temperature is the
    // machine's exhaust, refreshed at the start of step().
    const std::optional<double> &override = nodes_[v].inletOverride;
    if (override || flowing) {
        double delivered = override ? *override : mixed;
        if (*inlet_[m] != delivered) {
            *inlet_[m] = delivered;
            ++*stateVersion_[m];
        }
    }
    lastInlet_[m] = *inlet_[m];
}

double
RoomModel::temperature(const std::string &node_name) const
{
    return temperature_[requireNode(node_name)];
}

void
RoomModel::setSourceTemperature(const std::string &node_name, double celsius)
{
    size_t id = requireNode(node_name);
    if (nodes_[id].kind != RoomNodeKind::Source)
        MERCURY_PANIC("room node '", node_name, "' is not a source");
    temperature_[id] = celsius;
    markReceivers(static_cast<uint32_t>(id));
}

void
RoomModel::setEdgeFraction(const std::string &from, const std::string &to,
                           double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        MERCURY_PANIC("room edge fraction ", fraction, " outside [0, 1]");
    size_t nf = requireNode(from);
    size_t nt = requireNode(to);
    for (size_t i = 0; i < edges_.size(); ++i) {
        if (edges_[i].from == nf && edges_[i].to == nt) {
            setEdgeFraction(i, fraction);
            return;
        }
    }
    MERCURY_PANIC("room: no edge ", from, " -> ", to);
}

RoomModel::EdgeView
RoomModel::edge(size_t index) const
{
    const Edge &e = edges_.at(index);
    return {nodes_[e.from].name, nodes_[e.to].name, inFraction_[e.slot]};
}

void
RoomModel::setEdgeFraction(size_t index, double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        MERCURY_PANIC("room edge fraction ", fraction, " outside [0, 1]");
    const Edge &edge = edges_.at(index);
    inFraction_[edge.slot] = fraction;
    markDirty(edge.to);
    flowsStale_ = true; // mixing vertices pass the new share on
}

void
RoomModel::setInletOverride(const std::string &machine_name,
                            std::optional<double> celsius)
{
    size_t id = requireNode(machine_name);
    Node &node = nodes_[id];
    if (node.kind != RoomNodeKind::Machine)
        MERCURY_PANIC("room node '", machine_name, "' is not a machine");
    node.inletOverride = celsius;
    markDirty(static_cast<uint32_t>(id));
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
