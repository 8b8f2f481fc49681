/**
 * @file
 * Inter-machine air-flow model (the paper's Figure 1(c) graph).
 *
 * Machine inlet temperatures are computed from the room graph: air
 * conditioners supply air at a set temperature, machines consume inlet
 * air and emit exhaust air, and mixing vertices blend streams under
 * the paper's perfect-mixing assumption. Recirculation (exhaust fed
 * back to inlets) is expressed with ordinary edges.
 */

#ifndef MERCURY_CORE_ROOM_HH
#define MERCURY_CORE_ROOM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/spec.hh"

namespace mercury {
namespace core {

class ThermalGraph;

/**
 * Runtime room model; drives the inlet temperature of every machine
 * each solver iteration.
 */
class RoomModel
{
  public:
    /**
     * @param spec validated room description
     * @param machines machine name -> live model; every Machine node in
     * the spec must resolve here. Pointers are borrowed, not owned.
     */
    RoomModel(const RoomSpec &spec,
              const std::unordered_map<std::string, ThermalGraph *> &machines);

    /**
     * Propagate air temperatures through the room graph and write each
     * machine's inlet temperature (unless overridden). Call once per
     * solver iteration, before stepping the machine models. Inlets,
     * exhausts and fan flows are read and written straight in the
     * machines' batch lanes, as last bound by bindLanes().
     *
     * Only the downstream cone of what changed is recomputed: vertices
     * fed by an exhaust that moved, by a source, edge or flow that
     * changed, or by a mix that moved, machines whose override was
     * set or cleared, and machines whose inlet no longer holds what
     * the room last left there. A vertex recomputed from unchanged
     * inputs gives the same bits, so the result equals recomputing
     * every vertex.
     */
    void step();

    /**
     * Re-resolve every machine's batch lane. The Solver calls this
     * after it regroups its machines into batches; step() must not run
     * in between.
     */
    void bindLanes();

    /** Current air temperature at a room vertex [degC]. */
    double temperature(const std::string &node_name) const;

    /** Change an air conditioner's supply temperature (fiddle). */
    void setSourceTemperature(const std::string &node_name, double celsius);

    /** Change an edge fraction (fiddle), e.g. to model a blocked duct. */
    void setEdgeFraction(const std::string &from, const std::string &to,
                         double fraction);

    /**
     * Force a machine's inlet to a fixed temperature, bypassing the
     * room graph. This is how `fiddle <machine> temperature inlet X`
     * behaves in cluster mode. Pass nullopt to restore room control.
     */
    void setInletOverride(const std::string &machine_name,
                          std::optional<double> celsius);

    std::optional<double>
    inletOverride(const std::string &machine_name) const;

    /** Names of all room vertices, in spec order. */
    std::vector<std::string> nodeNames() const;

    /** True when the vertex exists. */
    bool hasNode(const std::string &node_name) const;

    /** True when the vertex exists and is a Source. */
    bool isSource(const std::string &node_name) const;

    /** True when a directed edge from -> to exists. */
    bool hasEdge(const std::string &from, const std::string &to) const;

    /** @name Checkpoint enumeration (src/state capture/restore)
     * Vertices by index in spec order (nodeNames()' order) and edges
     * by index, so a checkpoint reads them without name lookups. A
     * view's names point into this model.
     */
    /// @{

    struct EdgeView
    {
        std::string_view from;
        std::string_view to;
        double fraction;
    };

    size_t edgeCount() const { return edges_.size(); }
    EdgeView edge(size_t index) const;
    double edgeFraction(size_t index) const
    {
        return inFraction_[edges_.at(index).slot];
    }
    void setEdgeFraction(size_t index, double fraction);

    size_t nodeCount() const { return nodes_.size(); }
    std::string_view nodeName(size_t vertex) const
    {
        return nodes_.at(vertex).name;
    }
    bool isSource(size_t vertex) const
    {
        return nodes_.at(vertex).kind == RoomNodeKind::Source;
    }
    double temperature(size_t vertex) const
    {
        return temperature_.at(vertex);
    }
    /** The forced inlet of a Machine vertex; nullopt for any other. */
    std::optional<double> inletOverride(size_t vertex) const
    {
        return nodes_.at(vertex).inletOverride;
    }

    /// @}

  private:
    /** Cold per-vertex data; the hot state is in the arrays below. */
    struct Node
    {
        std::string name;
        RoomNodeKind kind;
        ThermalGraph *machine = nullptr;
        std::optional<double> inletOverride;
    };

    struct Edge
    {
        uint32_t from;
        uint32_t to;
        uint32_t slot; //!< its in-slot: inFraction_[slot] holds the fraction
    };

    /** machineOf_ of a Mix or Sink vertex, and of a Source. */
    static constexpr uint32_t kMixVertex = UINT32_MAX;
    static constexpr uint32_t kSourceVertex = UINT32_MAX - 1;

    size_t requireNode(const std::string &node_name) const;

    /** Recompute every mass flow, as step() always did, and mark the
     *  receivers of each vertex whose flow changed. */
    void recomputeFlows();

    /** Recompute vertex @p v from its in-slots: deliver a machine's
     *  inlet, or mix a Mix/Sink and mark its receivers when it moved. */
    void visit(uint32_t v);

    /** Queue vertex @p v for recomputation in this or the next step. */
    void
    markDirty(uint32_t v)
    {
        uint32_t p = position_[v];
        dirty_[p / 64] |= uint64_t(1) << (p % 64);
    }

    /** Queue every vertex that receives air from @p v. */
    void
    markReceivers(uint32_t v)
    {
        for (uint32_t k = outOffsets_[v]; k < outOffsets_[v + 1]; ++k) {
            uint32_t p = outPosition_[k];
            dirty_[p / 64] |= uint64_t(1) << (p % 64);
        }
    }

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::unordered_map<std::string, size_t> byName_;
    std::vector<uint32_t> order_;        //!< topological
    std::vector<uint32_t> position_;     //!< vertex -> index in order_
    std::vector<uint32_t> sourceNodes_;  //!< Source vertices, spec order
    std::vector<uint32_t> mixOrder_;     //!< Mix and Sink, topological

    /** @name Per vertex, spec order */
    /// @{
    std::vector<double> temperature_; //!< Source: supply; else last computed
    std::vector<double> massFlow_;    //!< kg/s leaving the vertex
    std::vector<uint32_t> machineOf_; //!< machine index, or a k*Vertex
    /// @}

    /** @name In-slots: incoming edges per vertex in CSR form
     * Slots [inOffsets_[v], inOffsets_[v + 1]) feed vertex v, in edge
     * spec order. */
    /// @{
    std::vector<uint32_t> inOffsets_;
    std::vector<uint32_t> inFrom_;     //!< upstream vertex
    std::vector<double> inFraction_;   //!< the edge's fraction
    /// @}

    /** Receivers per vertex in CSR form, as positions in order_. */
    std::vector<uint32_t> outOffsets_;
    std::vector<uint32_t> outPosition_;

    /** @name Per machine, spec order: its vertex and its lane
     * (see bindLanes) */
    /// @{
    std::vector<uint32_t> machineVertex_;
    std::vector<double *> inlet_;            //!< inlet temperature
    std::vector<const double *> exhaust_;    //!< exhaust temperature
    std::vector<const double *> fanFlow_;    //!< mass flow at the inlet
    std::vector<uint64_t *> stateVersion_;   //!< telemetry stamp
    /** The inlet as the room left it when it last visited the vertex:
     *  a different value means another writer changed it. */
    std::vector<double> lastInlet_;
    /// @}

    /**
     * Vertices to recompute, one bit per position in order_. step()
     * visits them in topological order and clears them; a vertex
     * whose output moved sets the bits of its receivers, which come
     * later in the order.
     */
    std::vector<uint64_t> dirty_;
    bool flowsStale_ = true; //!< an edge fraction changed since the last step
};

} // namespace core
} // namespace mercury

#endif // MERCURY_CORE_ROOM_HH
