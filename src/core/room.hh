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
        return edges_.at(index).fraction;
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
        return nodes_.at(vertex).temperature;
    }
    /** The forced inlet of a Machine vertex; nullopt for any other. */
    std::optional<double> inletOverride(size_t vertex) const
    {
        return nodes_.at(vertex).inletOverride;
    }

    /// @}

  private:
    struct Node
    {
        std::string name;
        RoomNodeKind kind;
        double temperature; // degC (Source: supply; else last computed)
        ThermalGraph *machine = nullptr;
        double massFlow = 0.0; // kg/s leaving this vertex
        std::optional<double> inletOverride;

        /** @name The machine's lane (Machine nodes; see bindLanes) */
        /// @{
        double *inlet = nullptr;          //!< inlet temperature
        const double *exhaust = nullptr;  //!< exhaust temperature
        const double *fanFlow = nullptr;  //!< mass flow at the inlet
        uint64_t *stateVersion = nullptr; //!< telemetry stamp
        /// @}
    };

    struct Edge
    {
        size_t from;
        size_t to;
        double fraction;
    };

    size_t requireNode(const std::string &node_name) const;

    /** Rebuild the per-vertex incoming-edge CSR rows. */
    void buildIncoming();

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::unordered_map<std::string, size_t> byName_;
    std::vector<size_t> order_; // topological
    std::vector<size_t> machineNodes_; //!< Machine vertices, spec order
    std::vector<size_t> sourceNodes_;  //!< Source vertices, spec order
    std::vector<size_t> mixOrder_;     //!< Mix and Sink, topological

    /**
     * Incoming edges per vertex in CSR form (offsets into inEdge_,
     * which indexes edges_). step() runs every solver iteration over
     * every room vertex; without this it rescanned the whole edge
     * list per vertex — O(V E) per iteration, the dominant cost for
     * large clusters.
     */
    std::vector<uint32_t> inOffsets_;
    std::vector<uint32_t> inEdge_;
};

} // namespace core
} // namespace mercury

#endif // MERCURY_CORE_ROOM_HH
