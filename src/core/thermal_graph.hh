/**
 * @file
 * Runtime thermal model of one machine: the coarse-grained
 * finite-element analysis at Mercury's heart (Section 2 of the paper).
 *
 * Per time step the model performs the paper's traversals:
 *   1. component heat generation, Q = P(u) dt          (eq. 3-4)
 *   2. inter-component heat flow, Q = k (T1 - T2) dt   (eq. 2)
 *   3. solid temperature update, dT = dQ / (m c)       (eq. 5)
 *   4. intra-machine air movement: every air vertex takes the
 *      mass-flow-weighted average of its upstream temperatures
 *      (perfect mixing) plus the heat it absorbed from components.
 *
 * A time step is automatically split into explicit-Euler substeps when
 * the stiffest solid node would otherwise be unstable.
 *
 * A ThermalGraph is a view of one lane of a MachineBatch
 * (core/machine_batch.hh): hot state (temperatures, heat gains, mass
 * flows, pins, edge constants, energy, version counters) lives in the
 * batch's lane-minor arrays, and the topology's CSR adjacency is
 * stored once per batch. A standalone graph owns a one-lane batch; the
 * Solver regroups its machines into one batch per distinct topology,
 * so its graphs view lanes of shared batches. Derived quantities that
 * only change on explicit mutation — per-node power draw, inverse heat
 * capacities, the substep count — are cached and recomputed on the
 * mutating calls (setUtilization, setHeatK, setFanCfm, ...), not once
 * per step.
 */

#ifndef MERCURY_CORE_THERMAL_GRAPH_HH
#define MERCURY_CORE_THERMAL_GRAPH_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/machine_batch.hh"
#include "core/power.hh"
#include "core/spec.hh"

namespace mercury {
namespace core {

/** Dense index of a node inside one ThermalGraph. */
using NodeId = size_t;

/**
 * One machine instantiated from a MachineSpec.
 */
class ThermalGraph
{
  public:
    /** Build from a validated spec; panics when the spec is invalid. */
    explicit ThermalGraph(const MachineSpec &spec);

    ThermalGraph(const ThermalGraph &) = delete;
    ThermalGraph &operator=(const ThermalGraph &) = delete;

    const std::string &name() const { return name_; }

    /** @name Simulation */
    /// @{

    /**
     * Advance the model by @p dt_seconds (substeps are automatic).
     * Returns the largest per-node |dT| any single substep produced —
     * the quiescence signal the active-set solver freezes on. The
     * value is derived from the same arithmetic that updates the
     * temperatures, so tracking it does not perturb the trajectory.
     */
    double step(double dt_seconds);

    /**
     * Most explicit-Euler substeps one step may take. A plan above it
     * means the model is too stiff for the step (a huge heat-edge k on
     * a small capacity): Solver::addMachine refuses such a machine,
     * fiddle refuses such a mutation, and step() panics rather than
     * step unstably.
     */
    static constexpr int kMaxSubsteps = 100000;

    /**
     * Substeps a step of @p dt_seconds needs for stability, counted in
     * double: it may exceed kMaxSubsteps, be infinite or be NaN (a NaN
     * step). Nothing is cached.
     */
    double substepsNeeded(double dt_seconds) const;

    /** Empty when a step of @p dt_seconds fits in kMaxSubsteps, else
     *  the refusal, naming the machine and the cap. */
    std::string substepCapError(double dt_seconds) const;

    /** Substep count step() would use for @p dt_seconds. */
    int
    substepsFor(double dt_seconds) const
    {
        const MachineBatch &b = *batch_;
        if (!b.planDirty[lane_] && dt_seconds == b.planDt[lane_])
            return b.planSubsteps[lane_];
        return planSubsteps(dt_seconds);
    }

    /** Total instantaneous draw over the powered nodes [W]. */
    double poweredWatts() const;

    /**
     * Monotonic counter bumped by every input mutation (utilization
     * changes, pins, edge constants, fan flow, power models, direct
     * temperature writes). The active-set solver compares it to decide
     * whether a machine's inputs changed since it froze; anything that
     * bumps it wakes a frozen machine on the next iteration.
     */
    uint64_t inputVersion() const { return batch_->inputVersion[lane_]; }

    /**
     * Monotonic counter bumped whenever any published state (node
     * temperatures or utilizations) may have changed: every step(),
     * every input mutation, and inlet deliveries that changed the
     * value. The telemetry writer skips recopying a machine whose
     * stateVersion is unchanged since its last publish.
     */
    uint64_t stateVersion() const { return batch_->stateVersion[lane_]; }

    /// @}
    /** @name State access */
    /// @{

    NodeId nodeId(const std::string &node_name) const;
    std::optional<NodeId> tryNodeId(const std::string &node_name) const;
    size_t nodeCount() const { return nodes_.size(); }
    const std::string &nodeName(NodeId id) const;
    NodeKind nodeKind(NodeId id) const;
    std::vector<std::string> nodeNames() const;

    double temperature(NodeId id) const;
    double temperature(const std::string &node_name) const;

    /** Snapshot every node temperature, in node-id order. */
    std::vector<double> temperatures() const;

    /** Restore a snapshot taken from an identical graph. */
    void setTemperatures(const std::vector<double> &values);

    /** Exhaust air temperature [degC] (input to the room model). */
    double exhaustTemperature() const
    {
        return at(batch_->temperature, batch_->topology().exhaust);
    }

    /** Air mass flow through a vertex [kg/s] (0 for solids). */
    double massFlow(NodeId id) const;

    /** Current utilization of a powered node in [0, 1]. */
    double utilization(const std::string &node_name) const;
    double utilization(NodeId id) const;

    /** Instantaneous power draw of a node [W] (0 when unpowered). */
    double power(const std::string &node_name) const;

    /** Sum of all component powers [W]. */
    double totalPower() const;

    /** Electrical energy integrated since construction [J]. */
    double energyConsumed() const { return batch_->energy[lane_]; }

    /// @}
    /** @name Dynamic inputs (monitord, fiddle, room model) */
    /// @{

    /** Set a powered node's utilization (clamped to [0, 1]). */
    void setUtilization(const std::string &node_name, double value);

    /**
     * Fast path for resolved handles (monitord updates arrive every
     * second per component; this skips the name lookup). Panics when
     * the node is unpowered, like the string overload.
     */
    void setUtilization(NodeId id, double value);

    /** True when the node id carries a power model. */
    bool isPowered(NodeId id) const;

    /** Inlet boundary temperature [degC]. */
    void setInletTemperature(double celsius);
    double inletTemperature() const
    {
        return at(batch_->temperature, batch_->topology().inlet);
    }

    /** Instantly set a node temperature; it evolves freely afterwards. */
    void setTemperature(const std::string &node_name, double celsius);

    /** Hold a node at a fixed temperature until unpinned. */
    void pinTemperature(const std::string &node_name, double celsius);
    void unpinTemperature(const std::string &node_name);
    bool isPinned(const std::string &node_name) const;

    /** Change the k constant of an existing heat edge [W/K]. */
    void setHeatK(const std::string &a, const std::string &b, double k);
    double heatK(const std::string &a, const std::string &b) const;
    bool hasHeatEdge(const std::string &a, const std::string &b) const;

    /** True when a directed air edge from -> to exists. */
    bool hasAirEdge(const std::string &from, const std::string &to) const;

    /** Fraction of an existing air edge. */
    double airFraction(const std::string &from, const std::string &to) const;

    /** True when the node exists and has a power model. */
    bool isPowered(const std::string &node_name) const;

    /** Change the fraction of an existing air edge; flows recompute. */
    void setAirFraction(const std::string &from, const std::string &to,
                        double fraction);

    /** Change the fan's volumetric flow [CFM]; flows recompute. */
    void setFanCfm(double cfm);
    double fanCfm() const { return fanCfm_; }

    /** Replace a node's linear power range [W]. */
    void setPowerRange(const std::string &node_name, double p_min,
                       double p_max);

    /** Install a custom power model for a node. */
    void setPowerModel(const std::string &node_name,
                       std::unique_ptr<PowerModel> model);

    /// @}
    /** @name Checkpoint enumeration (src/state capture/restore)
     * Index-based views over the mutable constants so a checkpoint can
     * enumerate them without knowing edge names, and index-based
     * setters that maintain the CSR/substep caches exactly like their
     * named counterparts. A view's names point into this graph.
     */
    /// @{

    struct HeatEdgeView
    {
        std::string_view a;
        std::string_view b;
        double k;
    };

    struct AirEdgeView
    {
        std::string_view from;
        std::string_view to;
        double fraction;
    };

    size_t heatEdgeCount() const { return batch_->topology().heatA.size(); }
    HeatEdgeView heatEdge(size_t index) const;
    double heatK(size_t index) const { return heatEdge(index).k; }
    void setHeatK(size_t index, double k);

    size_t airEdgeCount() const { return airFraction_.size(); }
    AirEdgeView airEdge(size_t index) const;
    double airFraction(size_t index) const { return airFraction_.at(index); }
    void setAirFraction(size_t index, double fraction);

    /** Powered node ids, ascending. */
    const std::vector<NodeId> &poweredNodeIds() const
    {
        return poweredIds_;
    }

    bool isPinned(NodeId id) const
    {
        return at(batch_->pinned, checkedId(id)) != 0.0;
    }
    double pinnedTemperature(NodeId id) const
    {
        return at(batch_->pinValue, checkedId(id));
    }
    void pinTemperature(NodeId id, double celsius);
    void unpinTemperature(NodeId id)
    {
        at(batch_->pinned, checkedId(id)) = 0.0;
        batch_->planDirty[lane_] = 1; // the lane may be plain again
        noteInputChanged();
    }

    /** Base/max power of a powered node's model [W]. */
    double basePower(NodeId id) const;
    double maxPower(NodeId id) const;

    /** Overwrite the integrated energy counter (checkpoint restore). */
    void restoreEnergyConsumed(double joules)
    {
        batch_->energy[lane_] = joules;
    }

    /// @}

  private:
    friend class RoomModel;
    friend class Solver;

    /** Cold per-node data; hot state lives in the batch's lanes. */
    struct Node
    {
        std::string name;
        NodeKind kind;
        double mass = 0.0;          // kg (solids; fallback air mass)
        double specificHeat = 0.0;  // J/(kg K)
        double utilization = 0.0;   // [0, 1]
        std::unique_ptr<PowerModel> powerModel; // null if unpowered
    };

    /** This lane's element of node/edge/slot row @p row. */
    template <typename T>
    T &
    at(std::vector<T> &array, size_t row) const
    {
        return array[row * batch_->lanes() + lane_];
    }
    template <typename T>
    const T &
    at(const std::vector<T> &array, size_t row) const
    {
        return array[row * batch_->lanes() + lane_];
    }

    /** @p id, or a panic when it is out of range. */
    NodeId checkedId(NodeId id) const;

    NodeId requireNode(const std::string &node_name) const;
    Node &poweredNode(const std::string &node_name);

    /** Heat edge index joining @p a and @p b (either direction). */
    std::optional<size_t> findHeatEdge(NodeId a, NodeId b) const;

    /** Air edge index from @p from to @p to. */
    std::optional<size_t> findAirEdge(NodeId from, NodeId to) const;

    /** Air edge index by node names; panics when absent. */
    size_t requireAirEdge(const std::string &from,
                          const std::string &to) const;

    /** Recompute this lane's mass flows and air-in weights. */
    void recomputeFlows();

    /** Refresh this lane's CSR mirror of edge @p edge's constant. */
    void syncHeatCsrK(size_t edge);

    /** Refresh cached power draw after a utilization/model change. */
    void refreshWatts(NodeId id);

    /** An input mutation: wakes frozen machines, dirties telemetry. */
    void noteInputChanged()
    {
        ++batch_->inputVersion[lane_];
        ++batch_->stateVersion[lane_];
    }

    /** Recompute and cache the substep count (cache miss); panics
     *  above kMaxSubsteps. */
    int planSubsteps(double dt_seconds) const;

    /** View lane @p lane of @p batch, dropping any batch owned so far
     *  (the caller copied this lane's state into it first). */
    void attach(MachineBatch *batch, size_t lane);

    /** Move this lane into a one-lane batch of @p topology, leaving a
     *  vacancy behind in a shared batch (powered-set change). */
    void rebatch(std::shared_ptr<const Topology> topology);

    MachineBatch &batch() const { return *batch_; }
    size_t lane() const { return lane_; }

    std::string name_;
    std::vector<Node> nodes_;
    std::vector<double> airFraction_; //!< per air edge, spec order
    std::vector<NodeId> poweredIds_;  //!< ascending (checkpoint view)
    std::unordered_map<std::string, NodeId> byName_;
    double fanCfm_ = 0.0;

    std::unique_ptr<MachineBatch> own_; //!< set while not in a shared batch
    MachineBatch *batch_ = nullptr;
    size_t lane_ = 0;

    /** Thermal mass [J/K] used for stagnant (zero-flow) air vertices. */
    static constexpr double kStagnantAirHeatCapacity = 60.0;
};

} // namespace core
} // namespace mercury

#endif // MERCURY_CORE_THERMAL_GRAPH_HH
