#include "core/thermal_graph.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/strings.hh"
#include "util/units.hh"

namespace mercury {
namespace core {

ThermalGraph::ThermalGraph(const MachineSpec &spec)
    : name_(spec.name), fanCfm_(spec.fanCfm)
{
    std::vector<std::string> problems = validate(spec);
    if (!problems.empty()) {
        std::string joined;
        for (const std::string &p : problems)
            joined += "\n  " + p;
        MERCURY_PANIC("invalid machine spec:", joined);
    }

    size_t count = spec.nodes.size();
    nodes_.reserve(count);
    std::vector<NodeKind> kinds;
    bool saw_inlet = false;
    bool saw_exhaust = false;
    for (const NodeSpec &ns : spec.nodes) {
        NodeId id = nodes_.size();
        Node node;
        node.name = ns.name;
        node.kind = ns.kind;
        node.mass = ns.mass;
        node.specificHeat = ns.specificHeat;
        if (ns.hasPower) {
            node.powerModel =
                std::make_unique<LinearPowerModel>(ns.minPower, ns.maxPower);
            poweredIds_.push_back(id);
        }
        byName_[ns.name] = id;
        saw_inlet |= ns.kind == NodeKind::Inlet;
        saw_exhaust |= ns.kind == NodeKind::Exhaust;
        kinds.push_back(ns.kind);
        nodes_.push_back(std::move(node));
    }
    // validate() already demands exactly one inlet/exhaust; this is
    // defense in depth, because the inlet defaulting to node 0 would
    // silently clobber that node's initial temperature below.
    if (!saw_inlet)
        MERCURY_PANIC("machine '", name_, "': spec has no Inlet node");
    if (!saw_exhaust)
        MERCURY_PANIC("machine '", name_, "': spec has no Exhaust node");

    std::vector<uint32_t> heat_a, heat_b, air_from, air_to;
    for (const HeatEdgeSpec &es : spec.heatEdges) {
        heat_a.push_back(static_cast<uint32_t>(requireNode(es.a)));
        heat_b.push_back(static_cast<uint32_t>(requireNode(es.b)));
    }
    for (const AirEdgeSpec &es : spec.airEdges) {
        air_from.push_back(static_cast<uint32_t>(requireNode(es.from)));
        air_to.push_back(static_cast<uint32_t>(requireNode(es.to)));
        airFraction_.push_back(es.fraction);
    }
    own_ = std::make_unique<MachineBatch>(
        Topology::build(std::move(kinds),
                        std::vector<uint32_t>(poweredIds_.begin(),
                                              poweredIds_.end()),
                        std::move(heat_a), std::move(heat_b),
                        std::move(air_from), std::move(air_to)),
        1);
    batch_ = own_.get();
    batch_->graphs[0] = this;
    MachineBatch &b = *batch_;

    for (NodeId id = 0; id < count; ++id) {
        const NodeSpec &ns = spec.nodes[id];
        at(b.temperature, id) =
            ns.initialTemperature.value_or(spec.initialTemperature);
        if (ns.kind == NodeKind::Component)
            at(b.invCapacity, id) = 1.0 / (ns.mass * ns.specificHeat);
        at(b.invStagnant, id) = ns.mass > 0.0 && ns.specificHeat > 0.0
                                    ? 1.0 / (ns.mass * ns.specificHeat)
                                    : 1.0 / kStagnantAirHeatCapacity;
    }
    at(b.temperature, b.topology().inlet) = spec.inletTemperature;

    for (const NodeId id : poweredIds_)
        refreshWatts(id);
    for (size_t i = 0; i < spec.heatEdges.size(); ++i) {
        at(b.heatK, i) = spec.heatEdges[i].k;
        syncHeatCsrK(i);
    }
    recomputeFlows();
}

void
ThermalGraph::attach(MachineBatch *batch, size_t lane)
{
    batch_ = batch;
    lane_ = lane;
    batch->graphs[lane] = this;
    own_.reset();
}

void
ThermalGraph::rebatch(std::shared_ptr<const Topology> topology)
{
    auto fresh = std::make_unique<MachineBatch>(std::move(topology), 1);
    fresh->copyLane(0, *batch_, lane_);
    if (!own_) {
        batch_->graphs[lane_] = nullptr;
        ++batch_->vacancies;
    }
    own_ = std::move(fresh);
    batch_ = own_.get();
    lane_ = 0;
    batch_->graphs[0] = this;
}

NodeId
ThermalGraph::checkedId(NodeId id) const
{
    if (id >= nodes_.size())
        MERCURY_PANIC("machine '", name_, "': node id ", id,
                      " out of range");
    return id;
}

NodeId
ThermalGraph::requireNode(const std::string &node_name) const
{
    auto it = byName_.find(node_name);
    if (it == byName_.end())
        MERCURY_PANIC("machine '", name_, "': unknown node '", node_name,
                      "'");
    return it->second;
}

std::optional<NodeId>
ThermalGraph::tryNodeId(const std::string &node_name) const
{
    auto it = byName_.find(node_name);
    if (it == byName_.end())
        return std::nullopt;
    return it->second;
}

NodeId
ThermalGraph::nodeId(const std::string &node_name) const
{
    return requireNode(node_name);
}

const std::string &
ThermalGraph::nodeName(NodeId id) const
{
    return nodes_.at(id).name;
}

NodeKind
ThermalGraph::nodeKind(NodeId id) const
{
    return nodes_.at(id).kind;
}

std::vector<std::string>
ThermalGraph::nodeNames() const
{
    std::vector<std::string> out;
    out.reserve(nodes_.size());
    for (const Node &node : nodes_)
        out.push_back(node.name);
    return out;
}

void
ThermalGraph::syncHeatCsrK(size_t edge)
{
    const Topology &topo = batch_->topology();
    double k = at(batch_->heatK, edge);
    for (uint32_t end : {topo.heatA[edge], topo.heatB[edge]}) {
        for (uint32_t slot = topo.heatOffsets[end];
             slot < topo.heatOffsets[end + 1]; ++slot) {
            if (topo.heatCsrEdge[slot] == edge)
                at(batch_->heatCsrK, slot) = k;
        }
    }
}

void
ThermalGraph::refreshWatts(NodeId id)
{
    const Node &node = nodes_[id];
    at(batch_->watts, id) =
        node.powerModel ? node.powerModel->power(node.utilization) : 0.0;
}

void
ThermalGraph::recomputeFlows()
{
    // Propagate mass flow from the fan through the edge fractions, and
    // cache each incoming edge's contribution weight so the substep
    // only multiplies weights by upstream temperatures.
    MachineBatch &b = *batch_;
    const Topology &topo = b.topology();
    for (NodeId id = 0; id < nodes_.size(); ++id)
        at(b.massFlow, id) = 0.0;
    at(b.massFlow, topo.inlet) = units::cfmToKgPerS(fanCfm_);
    for (NodeId id = 0; id < nodes_.size(); ++id)
        at(b.flowIn, id) = 0.0;
    for (uint32_t id : topo.flowOrder) {
        double flow_in = 0.0;
        for (uint32_t slot = topo.airInOffsets[id];
             slot < topo.airInOffsets[id + 1]; ++slot) {
            double weight = airFraction_[topo.airInEdge[slot]] *
                            at(b.massFlow, topo.airInFrom[slot]);
            at(b.airInWeight, slot) = weight;
            flow_in += weight;
        }
        at(b.massFlow, id) += flow_in;
        at(b.flowIn, id) = flow_in;
    }
    b.planDirty[lane_] = 1;
}

double
ThermalGraph::substepsNeeded(double dt_seconds) const
{
    // Explicit Euler on a solid node is stable when
    // dt * (sum of incident k) / (m c) < 1; we target <= 0.25 for
    // accuracy. Air vertices are updated algebraically and do not
    // constrain dt, except stagnant ones which use a fixed capacity.
    const MachineBatch &b = *batch_;
    const Topology &topo = b.topology();
    double worst_rate = 0.0;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const Node &node = nodes_[id];
        double capacity = 0.0;
        if (node.kind == NodeKind::Component) {
            capacity = node.mass * node.specificHeat;
        } else if (node.kind == NodeKind::Air && at(b.massFlow, id) <= 0.0) {
            capacity = node.mass > 0.0 && node.specificHeat > 0.0
                           ? node.mass * node.specificHeat
                           : kStagnantAirHeatCapacity;
        } else {
            continue;
        }
        double k_sum = 0.0;
        for (uint32_t slot = topo.heatOffsets[id];
             slot < topo.heatOffsets[id + 1]; ++slot)
            k_sum += at(b.heatCsrK, slot);
        if (capacity > 0.0)
            worst_rate = std::max(worst_rate, k_sum / capacity);
    }
    if (!(worst_rate > 0.0))
        return 1.0;
    // In double: a huge k puts dt / max_dt far past INT_MAX, and
    // converting that to int is undefined behaviour.
    double max_dt = 0.25 / worst_rate;
    double substeps = std::ceil(dt_seconds / max_dt);
    return substeps < 1.0 ? 1.0 : substeps;
}

std::string
ThermalGraph::substepCapError(double dt_seconds) const
{
    double needed = substepsNeeded(dt_seconds);
    if (needed <= kMaxSubsteps)
        return "";
    return format("machine '%s': a %g s step needs %g substeps, above the "
                  "substep cap ThermalGraph::kMaxSubsteps = %d",
                  name_.c_str(), dt_seconds, needed, kMaxSubsteps);
}

int
ThermalGraph::planSubsteps(double dt_seconds) const
{
    double needed = substepsNeeded(dt_seconds);
    if (!(needed <= kMaxSubsteps))
        MERCURY_PANIC(substepCapError(dt_seconds));
    int substeps = static_cast<int>(needed);
    MachineBatch &b = *batch_;
    b.planDirty[lane_] = 0;
    b.planDt[lane_] = dt_seconds;
    b.planSubsteps[lane_] = substeps;
    b.planPlain[lane_] = b.plainLane(lane_);
    return substeps;
}

double
ThermalGraph::step(double dt_seconds)
{
    if (dt_seconds <= 0.0)
        MERCURY_PANIC("ThermalGraph::step: non-positive dt ", dt_seconds);
    batch_->step(lane_, lane_ + 1, dt_seconds, substepsFor(dt_seconds),
                 /*plain=*/false);
    return batch_->lastDelta[lane_];
}

double
ThermalGraph::poweredWatts() const
{
    double watts = 0.0;
    for (NodeId id : poweredIds_)
        watts += at(batch_->watts, id);
    return watts;
}

double
ThermalGraph::temperature(NodeId id) const
{
    return at(batch_->temperature, checkedId(id));
}

double
ThermalGraph::temperature(const std::string &node_name) const
{
    return at(batch_->temperature, requireNode(node_name));
}

std::vector<double>
ThermalGraph::temperatures() const
{
    std::vector<double> out(nodes_.size());
    for (NodeId id = 0; id < out.size(); ++id)
        out[id] = at(batch_->temperature, id);
    return out;
}

void
ThermalGraph::setTemperatures(const std::vector<double> &values)
{
    if (values.size() != nodes_.size()) {
        MERCURY_PANIC("setTemperatures: got ", values.size(),
                      " values for ", nodes_.size(), " nodes");
    }
    for (NodeId id = 0; id < values.size(); ++id)
        at(batch_->temperature, id) = values[id];
    noteInputChanged();
}

double
ThermalGraph::massFlow(NodeId id) const
{
    return at(batch_->massFlow, checkedId(id));
}

double
ThermalGraph::utilization(const std::string &node_name) const
{
    return nodes_[requireNode(node_name)].utilization;
}

double
ThermalGraph::utilization(NodeId id) const
{
    return nodes_.at(id).utilization;
}

double
ThermalGraph::power(const std::string &node_name) const
{
    return at(batch_->watts, requireNode(node_name));
}

double
ThermalGraph::totalPower() const
{
    return poweredWatts();
}

ThermalGraph::Node &
ThermalGraph::poweredNode(const std::string &node_name)
{
    Node &node = nodes_[requireNode(node_name)];
    if (!node.powerModel)
        MERCURY_PANIC("machine '", name_, "': node '", node_name,
                      "' has no power model");
    return node;
}

void
ThermalGraph::setUtilization(const std::string &node_name, double value)
{
    NodeId id = requireNode(node_name);
    if (!nodes_[id].powerModel)
        MERCURY_PANIC("machine '", name_, "': node '", node_name,
                      "' has no power model");
    setUtilization(id, value);
}

void
ThermalGraph::setUtilization(NodeId id, double value)
{
    Node &node = nodes_.at(id);
    if (!node.powerModel)
        MERCURY_PANIC("machine '", name_, "': node '", node.name,
                      "' has no power model");
    // monitord re-sends the same utilization every second; an
    // unchanged value must not recompute the power draw nor wake a
    // quiescent machine.
    double clamped = std::clamp(value, 0.0, 1.0);
    if (clamped == node.utilization)
        return;
    node.utilization = clamped;
    noteInputChanged();
    refreshWatts(id);
}

bool
ThermalGraph::isPowered(NodeId id) const
{
    return nodes_.at(id).powerModel != nullptr;
}

void
ThermalGraph::setInletTemperature(double celsius)
{
    at(batch_->temperature, batch_->topology().inlet) = celsius;
    noteInputChanged();
}

void
ThermalGraph::setTemperature(const std::string &node_name, double celsius)
{
    at(batch_->temperature, requireNode(node_name)) = celsius;
    noteInputChanged();
}

void
ThermalGraph::pinTemperature(const std::string &node_name, double celsius)
{
    pinTemperature(requireNode(node_name), celsius);
}

void
ThermalGraph::unpinTemperature(const std::string &node_name)
{
    unpinTemperature(requireNode(node_name));
}

bool
ThermalGraph::isPinned(const std::string &node_name) const
{
    return isPinned(requireNode(node_name));
}

std::optional<size_t>
ThermalGraph::findHeatEdge(NodeId a, NodeId b) const
{
    const Topology &topo = batch_->topology();
    for (size_t i = 0; i < topo.heatA.size(); ++i) {
        if ((topo.heatA[i] == a && topo.heatB[i] == b) ||
            (topo.heatA[i] == b && topo.heatB[i] == a))
            return i;
    }
    return std::nullopt;
}

void
ThermalGraph::setHeatK(const std::string &a, const std::string &b, double k)
{
    if (k <= 0.0)
        MERCURY_PANIC("setHeatK: non-positive k ", k);
    auto edge = findHeatEdge(requireNode(a), requireNode(b));
    if (!edge)
        MERCURY_PANIC("machine '", name_, "': no heat edge ", a, " -- ", b);
    setHeatK(*edge, k);
}

double
ThermalGraph::heatK(const std::string &a, const std::string &b) const
{
    auto edge = findHeatEdge(requireNode(a), requireNode(b));
    if (!edge)
        MERCURY_PANIC("machine '", name_, "': no heat edge ", a, " -- ", b);
    return at(batch_->heatK, *edge);
}

bool
ThermalGraph::hasHeatEdge(const std::string &a, const std::string &b) const
{
    auto na = tryNodeId(a);
    auto nb = tryNodeId(b);
    return na && nb && findHeatEdge(*na, *nb);
}

std::optional<size_t>
ThermalGraph::findAirEdge(NodeId from, NodeId to) const
{
    const Topology &topo = batch_->topology();
    for (size_t i = 0; i < topo.airFrom.size(); ++i) {
        if (topo.airFrom[i] == from && topo.airTo[i] == to)
            return i;
    }
    return std::nullopt;
}

bool
ThermalGraph::hasAirEdge(const std::string &from, const std::string &to) const
{
    auto nf = tryNodeId(from);
    auto nt = tryNodeId(to);
    return nf && nt && findAirEdge(*nf, *nt);
}

size_t
ThermalGraph::requireAirEdge(const std::string &from,
                             const std::string &to) const
{
    auto edge = findAirEdge(requireNode(from), requireNode(to));
    if (!edge)
        MERCURY_PANIC("machine '", name_, "': no air edge ", from, " -> ", to);
    return *edge;
}

double
ThermalGraph::airFraction(const std::string &from, const std::string &to) const
{
    return airFraction_[requireAirEdge(from, to)];
}

bool
ThermalGraph::isPowered(const std::string &node_name) const
{
    auto id = tryNodeId(node_name);
    return id && nodes_[*id].powerModel != nullptr;
}

void
ThermalGraph::setAirFraction(const std::string &from, const std::string &to,
                             double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        MERCURY_PANIC("setAirFraction: fraction ", fraction,
                      " outside [0, 1]");
    setAirFraction(requireAirEdge(from, to), fraction);
}

void
ThermalGraph::setFanCfm(double cfm)
{
    if (cfm < 0.0)
        MERCURY_PANIC("setFanCfm: negative flow ", cfm);
    fanCfm_ = cfm;
    recomputeFlows();
    noteInputChanged();
}

void
ThermalGraph::setPowerRange(const std::string &node_name, double p_min,
                            double p_max)
{
    NodeId id = requireNode(node_name);
    Node &node = poweredNode(node_name);
    auto *linear = dynamic_cast<LinearPowerModel *>(node.powerModel.get());
    if (linear) {
        linear->setRange(p_min, p_max);
    } else {
        node.powerModel = std::make_unique<LinearPowerModel>(p_min, p_max);
    }
    noteInputChanged();
    refreshWatts(id);
}

ThermalGraph::HeatEdgeView
ThermalGraph::heatEdge(size_t index) const
{
    const Topology &topo = batch_->topology();
    if (index >= topo.heatA.size())
        MERCURY_PANIC("machine '", name_, "': heat edge ", index,
                      " out of range");
    return {nodes_[topo.heatA[index]].name, nodes_[topo.heatB[index]].name,
            at(batch_->heatK, index)};
}

void
ThermalGraph::setHeatK(size_t index, double k)
{
    if (k <= 0.0)
        MERCURY_PANIC("setHeatK: non-positive k ", k);
    if (index >= heatEdgeCount())
        MERCURY_PANIC("machine '", name_, "': heat edge ", index,
                      " out of range");
    at(batch_->heatK, index) = k;
    syncHeatCsrK(index);
    batch_->planDirty[lane_] = 1;
    noteInputChanged();
}

ThermalGraph::AirEdgeView
ThermalGraph::airEdge(size_t index) const
{
    const Topology &topo = batch_->topology();
    if (index >= topo.airFrom.size())
        MERCURY_PANIC("machine '", name_, "': air edge ", index,
                      " out of range");
    return {nodes_[topo.airFrom[index]].name, nodes_[topo.airTo[index]].name,
            airFraction_[index]};
}

void
ThermalGraph::setAirFraction(size_t index, double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        MERCURY_PANIC("setAirFraction: fraction ", fraction,
                      " outside [0, 1]");
    airFraction_.at(index) = fraction;
    recomputeFlows();
    noteInputChanged();
}

void
ThermalGraph::pinTemperature(NodeId id, double celsius)
{
    MachineBatch &b = *batch_;
    at(b.pinned, checkedId(id)) = 1.0;
    at(b.pinValue, id) = celsius;
    at(b.temperature, id) = celsius;
    b.planDirty[lane_] = 1; // the lane is no longer plain
    noteInputChanged();
}

double
ThermalGraph::basePower(NodeId id) const
{
    const Node &node = nodes_.at(id);
    if (!node.powerModel)
        MERCURY_PANIC("machine '", name_, "': node '", node.name,
                      "' has no power model");
    return node.powerModel->basePower();
}

double
ThermalGraph::maxPower(NodeId id) const
{
    const Node &node = nodes_.at(id);
    if (!node.powerModel)
        MERCURY_PANIC("machine '", name_, "': node '", node.name,
                      "' has no power model");
    return node.powerModel->maxPower();
}

void
ThermalGraph::setPowerModel(const std::string &node_name,
                            std::unique_ptr<PowerModel> model)
{
    if (!model)
        MERCURY_PANIC("setPowerModel: null model");
    NodeId id = requireNode(node_name);
    bool was_powered = nodes_[id].powerModel != nullptr;
    nodes_[id].powerModel = std::move(model);
    if (!was_powered) {
        // The powered set is part of the topology: this machine no
        // longer batches with its old peers.
        poweredIds_.insert(
            std::lower_bound(poweredIds_.begin(), poweredIds_.end(), id),
            id);
        const Topology &old = batch_->topology();
        rebatch(Topology::build(
            old.kinds,
            std::vector<uint32_t>(poweredIds_.begin(), poweredIds_.end()),
            old.heatA, old.heatB, old.airFrom, old.airTo));
    }
    noteInputChanged();
    refreshWatts(id);
}

} // namespace core
} // namespace mercury
