/**
 * @file
 * Oracle test for the batched stepping kernel. A scalar reference
 * stepper written straight from the paper's equations — heat
 * generation Q = P(u) dt (eq. 3-4), edge flow Q = k (T1 - T2) dt
 * (eq. 2), solid update dT = dQ / (m c) (eq. 5) and the implicit
 * flowing-air balance — walks one MachineSpec at a time with plain
 * per-node loops. A randomized multi-topology fleet, several lane
 * chunks wide, runs through the Solver at 1 and 4 threads under each
 * kernel the build has (baseline, and AVX2 on an x86-64 host that has
 * it), and every temperature and energy counter must equal the
 * reference's bit for bit. The fleet covers zero-fan (stagnant)
 * machines, pinned nodes, per-machine constants that split a batch
 * into runs of different substep counts, air-fraction changes, power
 * models installed on unpowered nodes (which moves a machine to
 * another batch) and machines added after the first iteration. A
 * second schedule pins and unpins nodes (the inlet included) and
 * stops and restarts fans on lanes in the middle of runs that are
 * otherwise plain (no pin, every air vertex flowing), so the runs the
 * solver steps with the plain substep split and merge between
 * iterations. Also an asan/tsan target: the fleet is wide enough for
 * the pool to fan out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/machine_batch.hh"
#include "core/power.hh"
#include "core/solver.hh"
#include "util/units.hh"

namespace mercury {
namespace core {
namespace {

/**
 * One machine stepped with plain loops over its MachineSpec. Where
 * the equations leave a choice the reference makes the solver's
 * documented one: 1/(m c) is applied as a product with the
 * reciprocal, sums run in spec order, and the air march visits the
 * smallest-id ready vertex first.
 */
class Reference
{
  public:
    explicit Reference(const MachineSpec &spec) : spec_(spec)
    {
        size_t count = spec_.nodes.size();
        temperature.resize(count);
        utilization_.assign(count, 0.0);
        power_.resize(count);
        pinned_.assign(count, false);
        held_.assign(count, 0.0);
        for (size_t v = 0; v < count; ++v) {
            const NodeSpec &node = spec_.nodes[v];
            temperature[v] =
                node.initialTemperature.value_or(spec_.initialTemperature);
            if (node.kind == NodeKind::Inlet)
                inlet_ = v;
            if (node.hasPower)
                power_[v].emplace(node.minPower, node.maxPower);
        }
        temperature[inlet_] = spec_.inletTemperature;
        for (const HeatEdgeSpec &edge : spec_.heatEdges)
            heat_.push_back({id(edge.a), id(edge.b), edge.k});
        for (const AirEdgeSpec &edge : spec_.airEdges)
            air_.push_back({id(edge.from), id(edge.to), edge.fraction});
        order_ = airOrder();
    }

    std::vector<double> temperature;
    double energy = 0.0;

    void
    setUtilization(const std::string &node, double value)
    {
        utilization_[id(node)] = std::clamp(value, 0.0, 1.0);
    }

    void
    setHeatK(const std::string &a, const std::string &b, double k)
    {
        size_t na = id(a);
        size_t nb = id(b);
        for (Heat &edge : heat_) {
            if ((edge.a == na && edge.b == nb) ||
                (edge.a == nb && edge.b == na))
                edge.k = k;
        }
    }

    void
    setAirFraction(const std::string &from, const std::string &to,
                   double fraction)
    {
        size_t nf = id(from);
        size_t nt = id(to);
        for (Air &edge : air_) {
            if (edge.from == nf && edge.to == nt)
                edge.fraction = fraction;
        }
    }

    void setFanCfm(double cfm) { spec_.fanCfm = cfm; }

    void
    pin(const std::string &node, double celsius)
    {
        size_t v = id(node);
        pinned_[v] = true;
        held_[v] = celsius;
        temperature[v] = celsius;
    }

    void unpin(const std::string &node) { pinned_[id(node)] = false; }

    void setInlet(double celsius) { temperature[inlet_] = celsius; }

    void
    setLinearPower(const std::string &node, double p_min, double p_max)
    {
        power_[id(node)].emplace(p_min, p_max);
    }

    void
    step(double dt_seconds)
    {
        size_t count = spec_.nodes.size();

        // Air mass flow: the fan's flow enters at the inlet and splits
        // along the air edges, vertex by vertex downstream.
        std::vector<double> flow(count, 0.0);
        flow[inlet_] = units::cfmToKgPerS(spec_.fanCfm);
        for (size_t v : order_) {
            double in = 0.0;
            for (const Air &edge : air_) {
                if (edge.to == v)
                    in += edge.fraction * flow[edge.from];
            }
            flow[v] += in;
        }

        // Explicit Euler is held to dt * sum(k) / (m c) <= 0.25 on
        // every solid and stagnant air vertex.
        double worst_rate = 0.0;
        for (size_t v = 0; v < count; ++v) {
            const NodeSpec &node = spec_.nodes[v];
            double capacity = 0.0;
            if (node.kind == NodeKind::Component)
                capacity = node.mass * node.specificHeat;
            else if (node.kind == NodeKind::Air && flow[v] <= 0.0)
                capacity = stagnantCapacity(node);
            else
                continue;
            double k_sum = 0.0;
            for (const Heat &edge : heat_) {
                if (edge.a == v || edge.b == v)
                    k_sum += edge.k;
            }
            if (capacity > 0.0)
                worst_rate = std::max(worst_rate, k_sum / capacity);
        }
        int substeps = 1;
        if (worst_rate > 0.0) {
            substeps = std::max(
                1, static_cast<int>(
                       std::ceil(dt_seconds / (0.25 / worst_rate))));
        }
        for (int s = 0; s < substeps; ++s)
            substep(dt_seconds / substeps, flow);
    }

  private:
    struct Heat
    {
        size_t a;
        size_t b;
        double k;
    };

    struct Air
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
        ADD_FAILURE() << "no node " << name;
        return 0;
    }

    static double
    stagnantCapacity(const NodeSpec &node)
    {
        return node.mass > 0.0 && node.specificHeat > 0.0
                   ? node.mass * node.specificHeat
                   : 60.0;
    }

    double
    watts(size_t v) const
    {
        return power_[v] ? power_[v]->power(utilization_[v]) : 0.0;
    }

    /** Air vertices in flow order: repeatedly the smallest-id vertex
     *  whose upstream vertices are all placed. */
    std::vector<size_t>
    airOrder() const
    {
        size_t count = spec_.nodes.size();
        std::vector<bool> placed(count, false);
        std::vector<size_t> order;
        for (;;) {
            size_t next = count;
            for (size_t v = 0; v < count && next == count; ++v) {
                NodeKind kind = spec_.nodes[v].kind;
                if (placed[v] || kind == NodeKind::Component)
                    continue;
                bool ready = true;
                for (const Air &edge : air_) {
                    if (edge.to == v && !placed[edge.from])
                        ready = false;
                }
                if (ready)
                    next = v;
            }
            if (next == count)
                return order;
            placed[next] = true;
            order.push_back(next);
        }
    }

    void
    substep(double dt, const std::vector<double> &flow)
    {
        size_t count = spec_.nodes.size();
        std::vector<double> &t = temperature;

        // Eq. 3-4: powered components turn their draw into heat.
        std::vector<double> gain(count, 0.0);
        double generated = 0.0;
        for (size_t v = 0; v < count; ++v) {
            if (!power_[v])
                continue;
            gain[v] = watts(v) * dt;
            generated += gain[v];
        }
        energy += generated;

        // Eq. 2: heat moves along every edge at start-of-substep
        // temperatures.
        for (const Heat &edge : heat_) {
            double q = edge.k * (t[edge.a] - t[edge.b]) * dt;
            gain[edge.a] -= q;
            gain[edge.b] += q;
        }

        // Eq. 5: solids integrate their net heat.
        for (size_t v = 0; v < count; ++v) {
            const NodeSpec &node = spec_.nodes[v];
            if (node.kind != NodeKind::Component)
                continue;
            if (pinned_[v])
                t[v] = held_[v];
            else
                t[v] += gain[v] * (1.0 / (node.mass * node.specificHeat));
        }

        // Flowing air: F_c (Ta - T_mix) = sum_j k_j (Tj - Ta) + P,
        // solved for Ta; stagnant air integrates like a small mass.
        for (size_t v : order_) {
            if (v == inlet_)
                continue;
            if (pinned_[v]) {
                t[v] = held_[v];
                continue;
            }
            double in = 0.0;
            double mix = 0.0;
            for (const Air &edge : air_) {
                if (edge.to != v)
                    continue;
                double weight = edge.fraction * flow[edge.from];
                in += weight;
                mix += weight * t[edge.from];
            }
            if (in > 1e-12) {
                double numer = mix * units::kAirSpecificHeat;
                double denom = in * units::kAirSpecificHeat;
                for (const Heat &edge : heat_) {
                    if (edge.a != v && edge.b != v)
                        continue;
                    numer += edge.k * t[edge.a == v ? edge.b : edge.a];
                    denom += edge.k;
                }
                numer += watts(v);
                t[v] = numer / denom;
            } else {
                t[v] += gain[v] * (1.0 / stagnantCapacity(spec_.nodes[v]));
            }
        }
        if (pinned_[inlet_])
            t[inlet_] = held_[inlet_];
    }

    MachineSpec spec_;
    std::vector<Heat> heat_; //!< spec order
    std::vector<Air> air_;   //!< spec order
    std::vector<size_t> order_;
    size_t inlet_ = 0;
    std::vector<double> utilization_;
    std::vector<std::optional<LinearPowerModel>> power_;
    std::vector<bool> pinned_;
    std::vector<double> held_;
};

/** Table 1's server with a second disk beside the first. */
MachineSpec
twoDiskServer(const std::string &name)
{
    MachineSpec spec = table1Server(name);
    NodeSpec platters = *spec.findNode("disk_platters");
    platters.name = "disk2_platters";
    NodeSpec shell = *spec.findNode("disk_shell");
    shell.name = "disk2_shell";
    NodeSpec air;
    air.kind = NodeKind::Air;
    air.name = "disk2_air";
    NodeSpec air_down = air;
    air_down.name = "disk2_air_down";
    spec.nodes.insert(spec.nodes.begin() + 2, {platters, shell});
    spec.nodes.push_back(air);
    spec.nodes.push_back(air_down);
    spec.heatEdges.push_back({"disk2_platters", "disk2_shell", 2.0});
    spec.heatEdges.push_back({"disk2_shell", "disk2_air", 1.9});
    for (AirEdgeSpec &edge : spec.airEdges) {
        if (edge.from == "inlet" && edge.to == "disk_air")
            edge.fraction = 0.2;
    }
    spec.airEdges.push_back({"inlet", "disk2_air", 0.2});
    spec.airEdges.push_back({"disk2_air", "disk2_air_down", 1.0});
    spec.airEdges.push_back({"disk2_air_down", "void_air", 1.0});
    return spec;
}

/** A small box with air-to-air heat edges and a sealed stagnant
 *  pocket that carries its own thermal mass. */
MachineSpec
pocketBox(const std::string &name, double fan_cfm)
{
    MachineSpec spec;
    spec.name = name;
    spec.fanCfm = fan_cfm;
    spec.inletTemperature = 19.5;
    spec.initialTemperature = 24.0;
    auto node = [&](const char *id, NodeKind kind, double mass, double c) {
        NodeSpec n;
        n.name = id;
        n.kind = kind;
        n.mass = mass;
        n.specificHeat = c;
        spec.nodes.push_back(n);
        return &spec.nodes.back();
    };
    NodeSpec *chip = node("chip", NodeKind::Component, 0.05, 700.0);
    chip->hasPower = true;
    chip->minPower = 2.0;
    chip->maxPower = 12.0;
    node("board", NodeKind::Component, 0.3, 900.0)->initialTemperature =
        30.0;
    node("inlet", NodeKind::Inlet, 0.0, 0.0);
    node("duct", NodeKind::Air, 0.0, 0.0);
    node("pocket", NodeKind::Air, 0.01, 1006.0);
    node("plenum", NodeKind::Air, 0.0, 0.0);
    node("exhaust", NodeKind::Exhaust, 0.0, 0.0);
    spec.heatEdges = {{"chip", "duct", 0.6},
                      {"chip", "board", 0.2},
                      {"board", "pocket", 0.5},
                      {"duct", "plenum", 0.3},
                      {"pocket", "plenum", 0.1}};
    spec.airEdges = {{"inlet", "duct", 1.0},
                     {"duct", "plenum", 1.0},
                     {"pocket", "plenum", 1.0},
                     {"plenum", "exhaust", 1.0}};
    return spec;
}

/** A solver fleet and its reference twins, mutated in lockstep. */
struct Fleet
{
    Fleet(unsigned threads, double period)
        : solver(config(threads, period))
    {
    }

    static SolverConfig
    config(unsigned threads, double period)
    {
        SolverConfig c;
        c.threads = threads;
        c.iterationSeconds = period;
        return c;
    }

    void
    add(const MachineSpec &spec)
    {
        names.push_back(spec.name);
        solver.addMachine(spec);
        refs.emplace_back(spec);
    }

    ThermalGraph &graph(size_t i) { return solver.machine(names[i]); }

    void
    iterate()
    {
        solver.iterate();
        for (Reference &ref : refs)
            ref.step(solver.iterationSeconds());
    }

    /** Every machine's temperatures and energy, bit for bit. */
    void
    expectBitwiseEqual(const char *when)
    {
        for (size_t i = 0; i < names.size(); ++i) {
            const ThermalGraph &g = graph(i);
            std::vector<double> got = g.temperatures();
            ASSERT_EQ(got.size(), refs[i].temperature.size());
            for (size_t v = 0; v < got.size(); ++v) {
                ASSERT_EQ(std::bit_cast<uint64_t>(got[v]),
                          std::bit_cast<uint64_t>(refs[i].temperature[v]))
                    << when << ": " << names[i] << " node "
                    << g.nodeName(v) << " solver " << got[v]
                    << " reference " << refs[i].temperature[v];
            }
            ASSERT_EQ(std::bit_cast<uint64_t>(g.energyConsumed()),
                      std::bit_cast<uint64_t>(refs[i].energy))
                << when << ": " << names[i] << " energy";
        }
    }

    Solver solver;
    std::vector<std::string> names;
    std::vector<Reference> refs;
};

/** The powered node every topology has, for utilization churn. */
const char *
loadNode(const std::string &name)
{
    return name.rfind("box", 0) == 0 ? "chip" : "cpu";
}

void
runScenario(unsigned threads, double period)
{
    Fleet fleet(threads, period);
    std::mt19937 rng(20061021);
    std::uniform_real_distribution<double> unit(0.0, 1.0);

    // Three topologies; the widest spans several lane chunks.
    size_t servers = 3 * Solver::kLaneChunk + 41;
    for (size_t i = 0; i < servers; ++i)
        fleet.add(table1Server("srv" + std::to_string(i)));
    for (size_t i = 0; i < 150; ++i)
        fleet.add(twoDiskServer("two" + std::to_string(i)));
    for (size_t i = 0; i < 60; ++i)
        fleet.add(pocketBox("box" + std::to_string(i), i % 6 ? 12.0 : 0.0));

    auto each = [&](size_t i, auto &&mutate) {
        mutate(fleet.graph(i), fleet.refs[i]);
    };
    // Stiff edges: these lanes need two or three times the substeps
    // of their peers.
    for (size_t i = 5; i < servers; i += 37) {
        double k = i % 2 ? 400.0 : 600.0;
        each(i, [k](ThermalGraph &g, Reference &r) {
            g.setHeatK("motherboard", "void_air", k);
            r.setHeatK("motherboard", "void_air", k);
        });
    }
    // Fans stopped: every air vertex goes stagnant.
    for (size_t i : std::vector<size_t>{7, 200, 390}) {
        each(i, [](ThermalGraph &g, Reference &r) {
            g.setFanCfm(0.0);
            r.setFanCfm(0.0);
        });
    }
    // Pins on a solid, an air vertex and the inlet.
    for (size_t i = 11; i < servers; i += 53) {
        each(i, [](ThermalGraph &g, Reference &r) {
            g.pinTemperature("cpu", 55.0);
            r.pin("cpu", 55.0);
        });
        each(i + 1, [](ThermalGraph &g, Reference &r) {
            g.pinTemperature("cpu_air", 33.25);
            r.pin("cpu_air", 33.25);
        });
        each(i + 2, [](ThermalGraph &g, Reference &r) {
            g.pinTemperature("inlet", 27.0);
            r.pin("inlet", 27.0);
        });
    }
    each(servers + 3, [](ThermalGraph &g, Reference &r) {
        g.setAirFraction("inlet", "disk2_air", 0.35);
        r.setAirFraction("inlet", "disk2_air", 0.35);
    });
    each(2, [](ThermalGraph &g, Reference &r) {
        g.setPowerModel("disk_shell",
                        std::make_unique<LinearPowerModel>(1.0, 6.0));
        r.setLinearPower("disk_shell", 1.0, 6.0);
    });

    auto churn = [&](int machines) {
        for (int k = 0; k < machines; ++k) {
            size_t i = static_cast<size_t>(unit(rng) * fleet.names.size());
            double value = unit(rng);
            const char *node = loadNode(fleet.names[i]);
            fleet.graph(i).setUtilization(node, value);
            fleet.refs[i].setUtilization(node, value);
        }
    };

    for (int it = 0; it < 12; ++it) {
        churn(40);
        fleet.iterate();
    }
    std::vector<size_t> lanes = fleet.solver.batchLanes();
    ASSERT_GE(lanes.size(), 3u);
    EXPECT_GE(*std::max_element(lanes.begin(), lanes.end()),
              3 * Solver::kLaneChunk);
    fleet.expectBitwiseEqual("after the first stretch");

    // Machines join after the first iterate(); lanes already batched
    // take a power model on an unpowered node (a new topology) and
    // further per-machine changes.
    for (size_t i = 0; i < 30; ++i)
        fleet.add(table1Server("late" + std::to_string(i)));
    for (size_t i = 0; i < 12; ++i)
        fleet.add(pocketBox("boxlate" + std::to_string(i), 0.0));
    for (size_t i : std::vector<size_t>{40, 41, servers + 10}) {
        each(i, [](ThermalGraph &g, Reference &r) {
            g.setPowerModel("disk_shell",
                            std::make_unique<LinearPowerModel>(0.5, 3.0));
            g.setUtilization("disk_shell", 0.75);
            r.setLinearPower("disk_shell", 0.5, 3.0);
            r.setUtilization("disk_shell", 0.75);
        });
    }
    each(11, [](ThermalGraph &g, Reference &r) {
        g.unpinTemperature("cpu");
        r.unpin("cpu");
    });
    each(100, [](ThermalGraph &g, Reference &r) {
        g.setInletTemperature(24.5);
        r.setInlet(24.5);
    });
    each(101, [](ThermalGraph &g, Reference &r) {
        g.setFanCfm(20.0);
        r.setFanCfm(20.0);
    });
    each(servers + 150 + 4, [](ThermalGraph &g, Reference &r) {
        g.setHeatK("chip", "board", 9.0);
        r.setHeatK("chip", "board", 9.0);
    });

    for (int it = 0; it < 25; ++it) {
        churn(40);
        fleet.iterate();
    }
    EXPECT_GE(fleet.solver.batchLanes().size(), 4u);
    fleet.expectBitwiseEqual("at the end");
}

/**
 * A fleet that steps as plain runs, then has single lanes and pairs of
 * neighbouring lanes in the middle of those runs pinned, unpinned,
 * stopped and restarted between iterations: every change must split
 * or merge the runs without moving a bit.
 */
void
runSplitScenario(unsigned threads, double period)
{
    Fleet fleet(threads, period);
    std::mt19937 rng(4242);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    size_t servers = 2 * Solver::kLaneChunk + 40;
    for (size_t i = 0; i < servers; ++i)
        fleet.add(table1Server("srv" + std::to_string(i)));
    for (size_t i = 0; i < 24; ++i)
        fleet.add(twoDiskServer("two" + std::to_string(i)));
    size_t total = fleet.names.size();
    auto pick = [&](size_t n) {
        return static_cast<size_t>(unit(rng) * static_cast<double>(n));
    };
    auto churn = [&]() {
        for (int k = 0; k < 30; ++k) {
            size_t i = pick(total);
            double value = unit(rng);
            fleet.graph(i).setUtilization("cpu", value);
            fleet.refs[i].setUtilization("cpu", value);
        }
    };

    for (int it = 0; it < 3; ++it) {
        churn();
        fleet.iterate();
    }
    fleet.expectBitwiseEqual("plain runs");

    const char *pinnable[] = {"cpu", "cpu_air", "inlet", "disk_platters",
                              "void_air"};
    std::vector<std::pair<size_t, const char *>> pins;
    std::vector<size_t> stopped;
    for (int round = 0; round < 16; ++round) {
        // One lane, or two neighbours, in the middle of a run.
        size_t first = 5 + pick(total - 10);
        size_t width = 1 + pick(2);
        for (size_t i = first; i < first + width; ++i) {
            double r = unit(rng);
            if (r < 0.4) {
                const char *node = pinnable[pick(5)];
                double celsius = 20.0 + 30.0 * unit(rng);
                fleet.graph(i).pinTemperature(node, celsius);
                fleet.refs[i].pin(node, celsius);
                pins.emplace_back(i, node);
            } else if (r < 0.6) {
                fleet.graph(i).setFanCfm(0.0);
                fleet.refs[i].setFanCfm(0.0);
                stopped.push_back(i);
            } else if (r < 0.8 && !pins.empty()) {
                auto [lane, node] = pins[pick(pins.size())];
                fleet.graph(lane).unpinTemperature(node);
                fleet.refs[lane].unpin(node);
            } else if (!stopped.empty()) {
                size_t lane = stopped[pick(stopped.size())];
                fleet.graph(lane).setFanCfm(38.6);
                fleet.refs[lane].setFanCfm(38.6);
            }
        }
        for (int it = 0; it < 2; ++it) {
            churn();
            fleet.iterate();
        }
        fleet.expectBitwiseEqual("after a round of pins and fans");
    }
    // Release everything: the runs merge back into plain ones.
    for (auto [lane, node] : pins) {
        fleet.graph(lane).unpinTemperature(node);
        fleet.refs[lane].unpin(node);
    }
    for (size_t lane : stopped) {
        fleet.graph(lane).setFanCfm(38.6);
        fleet.refs[lane].setFanCfm(38.6);
    }
    for (int it = 0; it < 3; ++it) {
        churn();
        fleet.iterate();
    }
    fleet.expectBitwiseEqual("after every release");
}

/**
 * Runs each case under one kernel, forced through
 * MachineBatch::setKernelForTest, and restores the process's own
 * choice afterwards. A kernel this build or CPU lacks is skipped.
 */
class KernelOracle : public ::testing::TestWithParam<MachineBatch::Kernel>
{
  protected:
    void
    SetUp() override
    {
        if (!MachineBatch::kernelAvailable(GetParam())) {
            GTEST_SKIP() << "no AVX2 kernel here: the build is not x86-64 "
                            "or the CPU lacks AVX2";
        }
        MachineBatch::setKernelForTest(GetParam());
    }

    void TearDown() override { MachineBatch::setKernelForTest(chosen_); }

  private:
    MachineBatch::Kernel chosen_ = MachineBatch::kernel();
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelOracle,
    ::testing::Values(MachineBatch::Kernel::Baseline,
                      MachineBatch::Kernel::Avx2),
    [](const ::testing::TestParamInfo<MachineBatch::Kernel> &info) {
        return info.param == MachineBatch::Kernel::Avx2 ? "Avx2"
                                                        : "Baseline";
    });

// The paper's 1 s period, and 0.7 s so that no substep length is a
// power of two (a reassociated product then changes bits).
TEST_P(KernelOracle, SerialSolverMatchesScalarReferenceBitwise)
{
    runScenario(1, 1.0);
    runScenario(1, 0.7);
}

TEST_P(KernelOracle, PooledSolverMatchesScalarReferenceBitwise)
{
    runScenario(4, 1.0);
    runScenario(4, 0.7);
}

TEST_P(KernelOracle, PlainRunsSplitAndMergeBitwise)
{
    runSplitScenario(1, 1.0);
    runSplitScenario(1, 0.7);
    runSplitScenario(4, 1.0);
}

TEST(KernelOracle, LoneGraphMatchesScalarReferenceBitwise)
{
    // A standalone graph owns a one-lane batch: the same kernel source,
    // in its one-lane form, which runs the same code on every CPU.
    MachineSpec spec = pocketBox("lone", 8.0);
    ThermalGraph graph(spec);
    Reference ref(spec);
    graph.setUtilization("chip", 0.6);
    ref.setUtilization("chip", 0.6);
    for (int it = 0; it < 300; ++it) {
        graph.step(0.7);
        ref.step(0.7);
        std::vector<double> got = graph.temperatures();
        for (size_t v = 0; v < got.size(); ++v) {
            ASSERT_EQ(std::bit_cast<uint64_t>(got[v]),
                      std::bit_cast<uint64_t>(ref.temperature[v]))
                << "step " << it << " node " << graph.nodeName(v);
        }
        ASSERT_EQ(std::bit_cast<uint64_t>(graph.energyConsumed()),
                  std::bit_cast<uint64_t>(ref.energy))
            << "step " << it;
    }
}

} // namespace
} // namespace core
} // namespace mercury
