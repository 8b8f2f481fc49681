/**
 * @file
 * Tests for the inter-machine (room) model: AC supply driving machine
 * inlets, exhaust mixing, overrides and recirculation. An oracle test
 * checks the incremental room step against a full room step written
 * here from the perfect-mixing rule, bit for bit, under a seeded
 * schedule of every input the room reads.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/power.hh"
#include "core/room.hh"
#include "core/solver.hh"
#include "core/thermal_graph.hh"
#include "util/units.hh"

namespace mercury {
namespace core {
namespace {

/** Build a solver with N Table-1 machines under one AC. */
std::unique_ptr<Solver>
makeCluster(size_t count, double ac_temp)
{
    auto solver = std::make_unique<Solver>();
    std::vector<std::string> names;
    for (size_t i = 0; i < count; ++i) {
        std::string name = "m" + std::to_string(i + 1);
        names.push_back(name);
        solver->addMachine(table1Server(name));
    }
    solver->setRoom(table1Room(names, ac_temp));
    return solver;
}

TEST(RoomModel, AcSupplyDrivesInlets)
{
    auto solver = makeCluster(4, 18.0);
    solver->run(100.0);
    for (const std::string &name : solver->machineNames())
        EXPECT_NEAR(solver->machine(name).inletTemperature(), 18.0, 1e-9);
}

TEST(RoomModel, RaisingAcTemperatureHeatsEveryMachine)
{
    auto solver = makeCluster(2, 18.0);
    for (const std::string &name : solver->machineNames())
        solver->setUtilization(name, "cpu", 1.0);
    solver->run(30000.0);
    double before = solver->temperature("m1", "cpu");

    solver->room().setSourceTemperature("ac", 28.0);
    solver->run(30000.0);
    EXPECT_NEAR(solver->temperature("m1", "cpu"), before + 10.0, 0.1);
    EXPECT_NEAR(solver->machine("m2").inletTemperature(), 28.0, 1e-9);
}

TEST(RoomModel, InletOverrideWinsOverRoom)
{
    auto solver = makeCluster(2, 18.0);
    solver->setInletTemperature("m1", 38.6); // fiddle-style emergency
    solver->run(100.0);
    EXPECT_NEAR(solver->machine("m1").inletTemperature(), 38.6, 1e-9);
    EXPECT_NEAR(solver->machine("m2").inletTemperature(), 18.0, 1e-9);

    solver->clearInletOverride("m1");
    solver->run(100.0);
    EXPECT_NEAR(solver->machine("m1").inletTemperature(), 18.0, 1e-9);
}

TEST(RoomModel, ClusterExhaustIsMixOfMachineExhausts)
{
    auto solver = makeCluster(2, 18.0);
    solver->setUtilization("m1", "cpu", 1.0);
    solver->run(30000.0);
    double e1 = solver->machine("m1").exhaustTemperature();
    double e2 = solver->machine("m2").exhaustTemperature();
    EXPECT_GT(e1, e2); // m1 is busier
    // Equal fans -> plain average at the cluster exhaust.
    EXPECT_NEAR(solver->room().temperature("cluster_exhaust"),
                0.5 * (e1 + e2), 0.05);
}

TEST(RoomModel, RecirculationWarmsDownstreamMachine)
{
    // m2 breathes 30% of m1's exhaust: a classic hot-aisle short
    // circuit. Its inlet must settle above the AC supply temperature.
    Solver solver;
    solver.addMachine(table1Server("m1"));
    solver.addMachine(table1Server("m2"));

    RoomSpec room;
    room.name = "recirc";
    RoomNodeSpec ac;
    ac.name = "ac";
    ac.kind = RoomNodeKind::Source;
    ac.temperature = 18.0;
    room.nodes.push_back(ac);
    for (const char *name : {"m1", "m2"}) {
        RoomNodeSpec node;
        node.name = name;
        node.kind = RoomNodeKind::Machine;
        node.machine = name;
        room.nodes.push_back(node);
    }
    RoomNodeSpec sink;
    sink.name = "out";
    sink.kind = RoomNodeKind::Sink;
    room.nodes.push_back(sink);
    room.edges.push_back({"ac", "m1", 0.5});
    room.edges.push_back({"ac", "m2", 0.5});
    room.edges.push_back({"m1", "m2", 0.3});
    room.edges.push_back({"m1", "out", 0.7});
    room.edges.push_back({"m2", "out", 1.0});
    solver.setRoom(room);

    solver.setUtilization("m1", "cpu", 1.0);
    solver.run(30000.0);

    double m1_inlet = solver.machine("m1").inletTemperature();
    double m2_inlet = solver.machine("m2").inletTemperature();
    EXPECT_NEAR(m1_inlet, 18.0, 1e-9);
    EXPECT_GT(m2_inlet, 18.5); // sees recirculated hot air
    EXPECT_GT(solver.temperature("m2", "cpu"),
              solver.machine("m2").inletTemperature());
}

TEST(RoomModel, SetEdgeFractionShiftsMix)
{
    auto solver = makeCluster(2, 18.0);
    solver->setUtilization("m1", "cpu", 1.0);
    solver->run(20000.0);
    // Make the cluster exhaust see only m1's (hotter) stream by
    // shrinking m2's contribution.
    double mixed = solver->room().temperature("cluster_exhaust");
    solver->room().setEdgeFraction("m2", "cluster_exhaust", 0.01);
    solver->run(1000.0);
    EXPECT_GT(solver->room().temperature("cluster_exhaust"), mixed);
}

TEST(RoomModel, FanSpeedChangesReweightTheMixing)
{
    auto solver = makeCluster(2, 18.0);
    solver->setUtilization("m1", "cpu", 1.0);
    solver->run(30000.0);
    double e1 = solver->machine("m1").exhaustTemperature();
    double e2 = solver->machine("m2").exhaustTemperature();
    ASSERT_GT(e1, e2 + 0.5);
    double even = solver->room().temperature("cluster_exhaust");
    EXPECT_NEAR(even, 0.5 * (e1 + e2), 0.05);

    // Triple m2's fan: the (cooler) m2 stream dominates the mix, and
    // the room must pick the new flow up on the next step.
    solver->machine("m2").setFanCfm(3.0 * 38.6);
    solver->run(5000.0);
    double e1_after = solver->machine("m1").exhaustTemperature();
    double e2_after = solver->machine("m2").exhaustTemperature();
    double expected = (e1_after + 3.0 * e2_after) / 4.0;
    EXPECT_NEAR(solver->room().temperature("cluster_exhaust"), expected,
                0.05);
}

/**
 * The room step before it became incremental, kept as a reference:
 * every iteration it recomputes every flow and every vertex in
 * topological order. Flows: a machine passes its fan flow, each
 * source an equal share of the total demand (summed in spec order),
 * a mix what it receives. A vertex mixes its inflows perfectly, in
 * edge spec order; a machine vertex delivers the mix (or its
 * override) to its inlet when it has inflow or an override, and then
 * carries its exhaust; a mix or sink with no inflow keeps its last
 * temperature.
 */
class ReferenceRoom
{
  public:
    ReferenceRoom(const RoomSpec &spec, Solver &solver)
        : spec_(spec), solver_(solver)
    {
        size_t count = spec_.nodes.size();
        temperature.resize(count);
        override_.resize(count);
        for (size_t v = 0; v < count; ++v) {
            const RoomNodeSpec &node = spec_.nodes[v];
            temperature[v] = node.kind == RoomNodeKind::Machine
                                 ? machine(v).exhaustTemperature()
                                 : node.temperature;
        }
        for (const AirEdgeSpec &edge : spec_.edges)
            edges_.push_back({id(edge.from), id(edge.to), edge.fraction});
        // Smallest-id ready vertex first.
        std::vector<bool> placed(count, false);
        while (order_.size() < count) {
            for (size_t v = 0; v < count; ++v) {
                bool ready = !placed[v];
                for (const Edge &edge : edges_) {
                    if (edge.to == v && !placed[edge.from])
                        ready = false;
                }
                if (ready) {
                    placed[v] = true;
                    order_.push_back(v);
                    break;
                }
            }
        }
    }

    std::vector<double> temperature; //!< per vertex, spec order

    void setSource(size_t v, double celsius) { temperature[v] = celsius; }
    void setFraction(size_t edge, double f) { edges_[edge].fraction = f; }
    void setOverride(size_t v, std::optional<double> c) { override_[v] = c; }

    /** One step over the machines' current lanes: writes each
     *  delivered inlet through @p inlet and counts in @p bumps the
     *  deliveries that changed a value, per vertex. */
    void
    step(std::vector<double> &inlet, std::vector<int> &bumps)
    {
        size_t count = spec_.nodes.size();
        std::vector<double> flow(count, 0.0);
        double demand = 0.0;
        size_t sources = 0;
        for (size_t v = 0; v < count; ++v) {
            if (kind(v) == RoomNodeKind::Machine) {
                const ThermalGraph &graph = machine(v);
                flow[v] = graph.massFlow(graph.nodeId("inlet"));
                demand += flow[v];
            }
            sources += kind(v) == RoomNodeKind::Source;
        }
        for (size_t v : order_) {
            if (kind(v) == RoomNodeKind::Source)
                flow[v] = demand / static_cast<double>(sources);
            if (kind(v) != RoomNodeKind::Mix && kind(v) != RoomNodeKind::Sink)
                continue;
            for (const Edge &edge : edges_) {
                if (edge.to == v)
                    flow[v] += edge.fraction * flow[edge.from];
            }
        }
        for (size_t v : order_) {
            if (kind(v) == RoomNodeKind::Source)
                continue;
            double in = 0.0;
            double mix = 0.0;
            for (const Edge &edge : edges_) {
                if (edge.to != v)
                    continue;
                double contribution = edge.fraction * flow[edge.from];
                in += contribution;
                mix += contribution * temperature[edge.from];
            }
            if (kind(v) == RoomNodeKind::Machine) {
                if (override_[v] || in > 1e-12) {
                    double delivered = override_[v] ? *override_[v] : mix / in;
                    if (inlet[v] != delivered) {
                        inlet[v] = delivered;
                        ++bumps[v];
                    }
                }
                temperature[v] = machine(v).exhaustTemperature();
            } else if (in > 1e-12) {
                temperature[v] = mix / in;
            }
        }
    }

  private:
    struct Edge
    {
        size_t from;
        size_t to;
        double fraction;
    };

    size_t
    id(const std::string &name) const
    {
        for (size_t v = 0; v < spec_.nodes.size(); ++v) {
            if (spec_.nodes[v].name == name)
                return v;
        }
        ADD_FAILURE() << "no room node " << name;
        return 0;
    }

    RoomNodeKind kind(size_t v) const { return spec_.nodes[v].kind; }

    const ThermalGraph &
    machine(size_t v) const
    {
        return solver_.machine(spec_.nodes[v].machine);
    }

    RoomSpec spec_;
    Solver &solver_;
    std::vector<Edge> edges_;
    std::vector<size_t> order_;
    std::vector<std::optional<double>> override_;
};

/**
 * Six machines under two sources: ac1 feeds m1 and a mix that feeds
 * m3 and m4, ac2 feeds that mix and m2; m1's exhaust partly
 * recirculates through a mix into m5's inlet; m2's exhaust partly
 * feeds a branch into m6, which carries no flow while m2's fan is
 * stopped. Everything else ends in one sink.
 */
RoomSpec
oracleRoom()
{
    RoomSpec room;
    room.name = "oracle";
    auto node = [&](const char *name, RoomNodeKind kind, double celsius) {
        RoomNodeSpec spec;
        spec.name = name;
        spec.kind = kind;
        spec.temperature = celsius;
        if (kind == RoomNodeKind::Machine)
            spec.machine = name;
        room.nodes.push_back(spec);
    };
    node("ac1", RoomNodeKind::Source, 18.0);
    for (const char *name : {"m1", "m2", "m3"})
        node(name, RoomNodeKind::Machine, 0.0);
    node("cold_mix", RoomNodeKind::Mix, 18.0);
    node("ac2", RoomNodeKind::Source, 21.0);
    node("recirc", RoomNodeKind::Mix, 25.0);
    for (const char *name : {"m4", "m5", "m6"})
        node(name, RoomNodeKind::Machine, 0.0);
    node("branch", RoomNodeKind::Mix, 30.0);
    node("out", RoomNodeKind::Sink, 18.0);
    room.edges = {{"ac1", "m1", 0.5},      {"ac1", "cold_mix", 0.5},
                  {"ac2", "cold_mix", 0.6}, {"ac2", "m2", 0.4},
                  {"cold_mix", "m3", 0.5},  {"cold_mix", "m4", 0.5},
                  {"m1", "recirc", 0.3},    {"m1", "out", 0.7},
                  {"recirc", "m5", 1.0},    {"m2", "branch", 0.2},
                  {"m2", "out", 0.8},       {"branch", "m6", 1.0},
                  {"m3", "out", 1.0},       {"m4", "out", 1.0},
                  {"m5", "out", 1.0},       {"m6", "out", 1.0}};
    return room;
}

TEST(RoomOracle, IncrementalStepMatchesFullStepBitwise)
{
    Solver solver;
    std::vector<std::string> names = {"m1", "m2", "m3", "m4", "m5", "m6"};
    for (const std::string &name : names)
        solver.addMachine(table1Server(name));
    RoomSpec spec = oracleRoom();
    solver.setRoom(spec);
    ReferenceRoom reference(spec, solver);
    RoomModel &room = solver.room();
    ASSERT_EQ(room.nodeCount(), spec.nodes.size());

    std::vector<size_t> machine_vertex;
    for (size_t v = 0; v < spec.nodes.size(); ++v) {
        if (spec.nodes[v].kind == RoomNodeKind::Machine)
            machine_vertex.push_back(v);
    }
    auto graph = [&](size_t k) -> ThermalGraph & {
        return solver.machine(names[k]);
    };

    std::mt19937 rng(20061021);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    auto pick = [&](size_t n) {
        return static_cast<size_t>(unit(rng) * static_cast<double>(n));
    };
    const double fans[] = {0.0, 12.0, 38.6, 38.6, 55.0};
    int deliveries = 0;
    for (int it = 0; it < 1500; ++it) {
        // Quiet stretches between bursts, so most steps skip vertices.
        bool burst = (it / 50) % 2 == 0 || it < 5;
        if (burst && unit(rng) < 0.5) {
            graph(pick(6)).setUtilization("cpu", unit(rng));
        }
        if (burst && unit(rng) < 0.15)
            graph(pick(6)).setFanCfm(fans[pick(5)]);
        if (burst && unit(rng) < 0.1) {
            size_t edge = pick(spec.edges.size());
            double fraction = 0.05 + 0.95 * unit(rng);
            room.setEdgeFraction(edge, fraction);
            reference.setFraction(edge, fraction);
        }
        if (burst && unit(rng) < 0.1) {
            bool first = unit(rng) < 0.5;
            double celsius = 15.0 + 10.0 * unit(rng);
            room.setSourceTemperature(first ? "ac1" : "ac2", celsius);
            reference.setSource(first ? 0 : 5, celsius);
        }
        if (burst && unit(rng) < 0.1) {
            size_t k = pick(6);
            if (unit(rng) < 0.5) {
                double celsius = 20.0 + 20.0 * unit(rng);
                solver.setInletTemperature(names[k], celsius);
                reference.setOverride(machine_vertex[k], celsius);
            } else {
                solver.clearInletOverride(names[k]);
                reference.setOverride(machine_vertex[k], std::nullopt);
            }
        }
        // Another writer sets an inlet the room delivers to (or, with
        // m6's branch dry, one it leaves alone).
        if (unit(rng) < 0.08)
            graph(pick(6)).setInletTemperature(10.0 + 30.0 * unit(rng));
        // A regroup: m3 takes a new power model, leaves its batch, and
        // the room rebinds its lanes at the next iterate().
        if (it == 700) {
            graph(2).setPowerModel(
                "disk_shell", std::make_unique<LinearPowerModel>(1.0, 4.0));
        }

        std::vector<double> inlet(spec.nodes.size(), 0.0);
        std::vector<uint64_t> version(spec.nodes.size(), 0);
        for (size_t k = 0; k < 6; ++k) {
            inlet[machine_vertex[k]] = graph(k).inletTemperature();
            version[machine_vertex[k]] = graph(k).stateVersion();
        }
        std::vector<int> bumps(spec.nodes.size(), 0);
        reference.step(inlet, bumps);
        solver.iterate();

        for (size_t k = 0; k < 6; ++k) {
            size_t v = machine_vertex[k];
            deliveries += bumps[v];
            // The machines step after the room; nothing pins an inlet,
            // so it still holds what the room delivered, and the step
            // bumped the stamp once more.
            ASSERT_EQ(std::bit_cast<uint64_t>(graph(k).inletTemperature()),
                      std::bit_cast<uint64_t>(inlet[v]))
                << "iteration " << it << ": " << names[k] << " inlet "
                << graph(k).inletTemperature() << " reference " << inlet[v];
            ASSERT_EQ(graph(k).stateVersion(),
                      version[v] + static_cast<uint64_t>(bumps[v]) + 1)
                << "iteration " << it << ": " << names[k] << " stateVersion";
        }
        for (size_t v = 0; v < spec.nodes.size(); ++v) {
            ASSERT_EQ(std::bit_cast<uint64_t>(room.temperature(v)),
                      std::bit_cast<uint64_t>(reference.temperature[v]))
                << "iteration " << it << ": vertex " << spec.nodes[v].name
                << " room " << room.temperature(v) << " reference "
                << reference.temperature[v];
        }
    }
    // The schedule really exercised deliveries, quiet steps included.
    EXPECT_GT(deliveries, 1000);
}

TEST(RoomModel, NodeNamesListed)
{
    auto solver = makeCluster(3, 18.0);
    auto names = solver->room().nodeNames();
    EXPECT_EQ(names.size(), 5u); // ac + sink + 3 machines
}

} // namespace
} // namespace core
} // namespace mercury
