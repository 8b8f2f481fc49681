/**
 * @file
 * Plain-data specifications for Mercury's three input graphs
 * (Section 2.2 of the paper): the inter-component heat-flow graph, the
 * intra-machine air-flow graph, and the inter-machine (room) air-flow
 * graph. Specs are produced by the graphdot parser or built
 * programmatically, then instantiated into runtime models
 * (core/thermal_graph.hh, core/room.hh).
 */

#ifndef MERCURY_CORE_SPEC_HH
#define MERCURY_CORE_SPEC_HH

#include <optional>
#include <string>
#include <vector>

namespace mercury {
namespace core {

/** Role of a vertex in a machine's combined heat/air graph. */
enum class NodeKind {
    Component, //!< solid part with thermal mass (CPU, disk shell, ...)
    Air,       //!< flowing air region inside the machine
    Inlet,     //!< boundary: air entering the case (temperature is set
               //!< by the user, by fiddle, or by the room model)
    Exhaust    //!< boundary: air leaving the case
};

/** One vertex of a machine graph. */
struct NodeSpec
{
    std::string name;
    NodeKind kind = NodeKind::Component;

    /** Mass [kg]; required for components, optional for stagnant air. */
    double mass = 0.0;

    /** Specific heat capacity [J/(kg K)]. */
    double specificHeat = 0.0;

    /** Idle power Pbase [W]; only meaningful with hasPower. */
    double minPower = 0.0;

    /** Full-utilization power Pmax [W]. */
    double maxPower = 0.0;

    /** True when the node converts electrical power into heat. */
    bool hasPower = false;

    /** Initial / boundary temperature [degC]; nullopt = machine default. */
    std::optional<double> initialTemperature;
};

/** Undirected heat-flow edge: Q = k (T_a - T_b) dt. */
struct HeatEdgeSpec
{
    std::string a;
    std::string b;
    double k = 0.0; //!< heat-transfer constant [W/K]
};

/** Directed air-flow edge: @p fraction of the air leaving @p from. */
struct AirEdgeSpec
{
    std::string from;
    std::string to;
    double fraction = 0.0;
};

/** A whole machine: Figure 1(a) + 1(b) of the paper plus constants. */
struct MachineSpec
{
    std::string name;

    /** Inlet air temperature when no room model drives it [degC]. */
    double inletTemperature = 21.6;

    /** Case fan volumetric flow [cubic feet per minute]. */
    double fanCfm = 38.6;

    /** Initial temperature of every object/air region [degC]. */
    double initialTemperature = 21.6;

    std::vector<NodeSpec> nodes;
    std::vector<HeatEdgeSpec> heatEdges;
    std::vector<AirEdgeSpec> airEdges;

    /** Find a node by name; nullptr when absent. */
    const NodeSpec *findNode(const std::string &node_name) const;
};

/** Role of a vertex in the inter-machine (room) air graph. */
enum class RoomNodeKind {
    Source,  //!< fixed-temperature supply (an air conditioner)
    Machine, //!< a machine: consumes inlet air, produces exhaust air
    Mix,     //!< pure mixing point (plenum, aisle)
    Sink     //!< room return / cluster exhaust
};

/** One vertex of the room graph (Figure 1(c)). */
struct RoomNodeSpec
{
    std::string name;
    RoomNodeKind kind = RoomNodeKind::Mix;

    /** Supply temperature [degC]; Source nodes only. */
    double temperature = 18.0;

    /** For Machine nodes: which MachineSpec instance this refers to. */
    std::string machine;
};

/** The room: machines + sources + sinks + directed fractional air edges. */
struct RoomSpec
{
    std::string name;
    std::vector<RoomNodeSpec> nodes;
    std::vector<AirEdgeSpec> edges;

    const RoomNodeSpec *findNode(const std::string &node_name) const;
};

/** A parsed configuration file: machine templates + optional room. */
struct ConfigSpec
{
    std::vector<MachineSpec> machines;
    std::optional<RoomSpec> room;
};

/**
 * Validate a machine spec: unique node names, edges referencing known
 * nodes, non-negative constants, air-flow fractions out of every
 * non-exhaust air vertex summing to ~1, at least one inlet and one
 * exhaust, and an acyclic air graph. Returns a list of problems
 * (empty when valid).
 */
std::vector<std::string> validate(const MachineSpec &spec);

/** Validate a room spec against the machines it references: unique
 *  node names, known machines, at least one air source, fractions
 *  out of every non-sink node summing to ~1, and an acyclic graph. */
std::vector<std::string> validate(const RoomSpec &room,
                                  const ConfigSpec &config);

/**
 * The paper's Table 1 server (Pentium III + 15K SCSI disk): the
 * heat-flow graph of Figure 1(a), the air-flow graph of Figure 1(b)
 * and all constants, exactly as published. Used by validation tests,
 * the figure benches and the examples.
 */
MachineSpec table1Server(const std::string &name = "server");

/**
 * The paper's Figure 1(c) four-machine room: one AC supplying 25% of
 * its air to each machine, all exhausts merging into a cluster exhaust.
 */
RoomSpec table1Room(const std::vector<std::string> &machine_names,
                    double ac_supply_temperature = 18.0);

} // namespace core
} // namespace mercury

#endif // MERCURY_CORE_SPEC_HH
