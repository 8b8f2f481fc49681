#include "core/solver.hh"

#include <cmath>
#include <istream>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "util/logging.hh"
#include "util/strings.hh"
#include "util/thread_pool.hh"

namespace mercury {
namespace core {

Solver::Solver(SolverConfig config)
    : config_(config)
{
    if (config_.iterationSeconds <= 0.0) {
        MERCURY_PANIC("Solver: non-positive iteration period ",
                      config_.iterationSeconds);
    }
    // The paper's sensor API opens "disk"; the in-disk sensor sits next
    // to the platters in the two-lump drive model borrowed from
    // Gurumurthi et al.
    aliases_["disk"] = "disk_platters";
}

Solver::~Solver() = default;

ThreadPool *
Solver::pool()
{
    if (poolDecided_)
        return pool_.get();
    poolDecided_ = true;

    unsigned executors = config_.threads;
    if (executors == 0) {
        executors = std::thread::hardware_concurrency();
        if (executors == 0)
            executors = 1;
    }
    // One executor is the calling thread itself; a fleet narrower
    // than two lane chunks always steps inline (see kLaneChunk).
    size_t chunks = machines_.size() / kLaneChunk;
    size_t workers =
        executors > 1 && chunks > 1
            ? std::min<size_t>(executors - 1, chunks - 1)
            : 0;
    if (workers == 0)
        pool_.reset();
    else if (!pool_ || pool_->workerCount() != workers)
        pool_ = std::make_unique<ThreadPool>(workers);
    return pool_.get();
}

bool
Solver::layoutStale() const
{
    if (layoutDirty_)
        return true;
    for (const auto &batch : batches_) {
        if (batch->vacancies)
            return true;
    }
    return false;
}

void
Solver::rebuildBatches()
{
    // Group machines by topology key, keeping machine order inside a
    // group so lanes (and therefore runs) follow the fleet's order.
    std::vector<std::vector<size_t>> groups;
    std::unordered_multimap<size_t, size_t> by_key;
    for (size_t i = 0; i < machines_.size(); ++i) {
        const Topology &topo = machines_[i]->batch().topology();
        size_t key = topo.keyHash();
        size_t group = groups.size();
        auto [lo, hi] = by_key.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
            const ThermalGraph &peer = *machines_[groups[it->second][0]];
            if (peer.batch().topology().sameKey(topo)) {
                group = it->second;
                break;
            }
        }
        if (group == groups.size()) {
            groups.emplace_back();
            by_key.emplace(key, group);
        }
        groups[group].push_back(i);
    }

    std::vector<std::unique_ptr<MachineBatch>> fresh;
    for (const std::vector<size_t> &group : groups) {
        auto batch = std::make_unique<MachineBatch>(
            machines_[group[0]]->batch().sharedTopology(), group.size());
        for (size_t lane = 0; lane < group.size(); ++lane) {
            ThermalGraph &graph = *machines_[group[lane]];
            batch->copyLane(lane, graph.batch(), graph.lane());
            graph.attach(batch.get(), lane);
        }
        fresh.push_back(std::move(batch));
    }
    batches_ = std::move(fresh);
    laneMachine_ = std::move(groups);
    layoutDirty_ = false;
    poolDecided_ = false;
}

std::vector<size_t>
Solver::batchLanes() const
{
    std::vector<size_t> lanes;
    for (const auto &batch : batches_)
        lanes.push_back(batch->lanes());
    return lanes;
}

template <typename Wanted>
void
Solver::planRuns(double dt, Wanted wanted)
{
    runs_.clear();
    for (size_t b = 0; b < batches_.size(); ++b) {
        MachineBatch &batch = *batches_[b];
        size_t lanes = batch.lanes();
        size_t lane = 0;
        while (lane < lanes) {
            if (!wanted(b, lane)) {
                ++lane;
                continue;
            }
            int substeps = batch.substepsFor(lane, dt);
            uint8_t plain = batch.planPlain[lane];
            size_t end = lane + 1;
            while (end < lanes && end - lane < kLaneChunk &&
                   wanted(b, end) &&
                   batch.substepsFor(end, dt) == substeps &&
                   batch.planPlain[end] == plain)
                ++end;
            runs_.push_back({&batch, lane, end, substeps, plain != 0});
            lane = end;
        }
    }
}

void
Solver::stepRuns(double dt, size_t lanes)
{
    // Lanes are independent until the next room phase and every run
    // writes only its own lanes, so any split across executors gives
    // the serial result bitwise.
    ThreadPool *fanout = lanes >= 2 * kLaneChunk ? pool() : nullptr;
    if (fanout) {
        fanout->parallelFor(runs_.size(), [&](size_t k) {
            const LaneRun &run = runs_[k];
            run.batch->step(run.begin, run.end, dt, run.substeps,
                            run.plain);
        });
    } else {
        for (const LaneRun &run : runs_)
            run.batch->step(run.begin, run.end, dt, run.substeps,
                            run.plain);
    }
}

ThermalGraph &
Solver::addMachine(const MachineSpec &spec)
{
    if (machineIndex_.count(spec.name))
        MERCURY_PANIC("Solver: duplicate machine '", spec.name, "'");
    if (room_)
        MERCURY_PANIC("Solver: add machines before installing the room");
    auto graph = std::make_unique<ThermalGraph>(spec);
    std::string refusal = graph->substepCapError(config_.iterationSeconds);
    if (!refusal.empty())
        fatal(refusal);
    machines_.push_back(std::move(graph));
    machineIndex_[spec.name] = machines_.size() - 1;
    layoutDirty_ = true; // batches (and the pool) are rebuilt lazily
    Quiescence fresh;
    fresh.inputSeen = machines_.back()->inputVersion();
    quiescence_.push_back(fresh);
    return *machines_.back();
}

void
Solver::setRoom(const RoomSpec &spec)
{
    if (room_)
        MERCURY_PANIC("Solver: room already installed");
    std::unordered_map<std::string, ThermalGraph *> live;
    for (auto &graph : machines_)
        live[graph->name()] = graph.get();
    room_ = std::make_unique<RoomModel>(spec, live);
}

RoomModel &
Solver::room()
{
    if (!room_)
        MERCURY_PANIC("Solver: no room model installed");
    return *room_;
}

const RoomModel &
Solver::room() const
{
    if (!room_)
        MERCURY_PANIC("Solver: no room model installed");
    return *room_;
}

bool
Solver::hasMachine(const std::string &machine_name) const
{
    return machineIndex_.count(machine_name) != 0;
}

ThermalGraph &
Solver::machine(const std::string &machine_name)
{
    auto it = machineIndex_.find(machine_name);
    if (it == machineIndex_.end())
        MERCURY_PANIC("Solver: unknown machine '", machine_name, "'");
    return *machines_[it->second];
}

const ThermalGraph &
Solver::machine(const std::string &machine_name) const
{
    auto it = machineIndex_.find(machine_name);
    if (it == machineIndex_.end())
        MERCURY_PANIC("Solver: unknown machine '", machine_name, "'");
    return *machines_[it->second];
}

std::optional<size_t>
Solver::machineIndex(std::string_view machine_name) const
{
    auto it = machineIndex_.find(machine_name);
    if (it == machineIndex_.end())
        return std::nullopt;
    return it->second;
}

std::vector<std::string>
Solver::machineNames() const
{
    std::vector<std::string> out;
    out.reserve(machines_.size());
    for (const auto &graph : machines_)
        out.push_back(graph->name());
    return out;
}

void
Solver::iterate()
{
    if (layoutStale()) {
        rebuildBatches();
        if (room_)
            room_->bindLanes();
    }
    if (config_.quiescenceEpsilon > 0.0) {
        iterateActiveSet();
        return;
    }

    // Phase 1 (serial): the room model reads every machine's exhaust
    // and writes every machine's inlet boundary.
    if (room_)
        room_->step();

    // Phase 2: machines are now independent until the next room
    // phase; every lane of every batch steps.
    const double dt = config_.iterationSeconds;
    planRuns(dt, [](size_t, size_t) { return true; });
    stepRuns(dt, machines_.size());
    ++iterations_;
    if (iterationHook_)
        iterationHook_();
}

void
Solver::iterateActiveSet()
{
    const double eps = config_.quiescenceEpsilon;
    const double dt = config_.iterationSeconds;
    const uint64_t refresh = config_.quiescenceRefreshIterations;

    // Phase 1 (serial): the room still runs every iteration — it is
    // the coupling between machines and the source of inlet-driven
    // wakes. Its inlet deliveries are not input mutations (see
    // RoomModel::step).
    if (room_)
        room_->step();

    // Phase A (serial): decide who steps. Frozen machines wake when
    // an input changed or the delivered inlet drifted past epsilon;
    // otherwise they either take a forced refresh re-step or skip the
    // iteration entirely, accruing energy analytically. The scan runs
    // in lane order over the batches' version, inlet and energy
    // arrays, so a frozen machine costs a few contiguous reads.
    activeScratch_.clear();
    for (size_t b = 0; b < batches_.size(); ++b) {
        MachineBatch &batch = *batches_[b];
        const double *inlet =
            batch.temperature.data() + batch.topology().inlet * batch.lanes();
        for (size_t lane = 0; lane < batch.lanes(); ++lane) {
            size_t i = laneMachine_[b][lane];
            Quiescence &q = quiescence_[i];
            q.stepping = !q.frozen;
            if (!q.frozen) {
                activeScratch_.push_back(i);
                continue;
            }
            bool wake = batch.inputVersion[lane] != q.inputSeen ||
                        std::fabs(inlet[lane] - q.frozenInlet) > eps;
            if (wake) {
                q.frozen = false;
                q.refreshing = false;
                q.calm = 0;
                q.lastDelta = -1.0;
                --frozenCount_;
                q.stepping = true;
                activeScratch_.push_back(i);
            } else if (refresh > 0 && iterations_ >= q.nextRefresh) {
                q.refreshing = true;
                q.stepping = true;
                activeScratch_.push_back(i);
            } else {
                // Watts are constant while frozen (any change to them
                // is an input mutation, which wakes): the energy
                // integral is the cached draw times dt, one add, and
                // the thermal state stays untouched.
                batch.energy[lane] += q.frozenWatts * dt;
            }
        }
    }

    // Phase 2: step maximal runs of active lanes; a frozen lane is
    // never stepped. Same independence argument as the classic path;
    // each lane's |dT| lands in its batch's lastDelta.
    planRuns(dt, [&](size_t b, size_t lane) {
        return quiescence_[laneMachine_[b][lane]].stepping;
    });
    stepRuns(dt, activeScratch_.size());

    // Phase B (serial): freeze bookkeeping. A machine is "calm" when
    // its inputs did not change, its max |dT| is under epsilon, and
    // the geometric-tail projection says the remaining approach also
    // fits in epsilon (see the Quiescence doc in solver.hh).
    for (size_t k = 0; k < activeScratch_.size(); ++k) {
        size_t i = activeScratch_[k];
        ThermalGraph &graph = *machines_[i];
        Quiescence &q = quiescence_[i];
        double delta = graph.batch().lastDelta[graph.lane()];
        uint64_t input = graph.inputVersion();
        bool input_changed = input != q.inputSeen;
        q.inputSeen = input;

        if (q.frozen) {
            // Forced refresh re-step: stay frozen only when the step
            // confirms nothing moved.
            q.refreshing = false;
            if (!input_changed && delta <= eps) {
                q.frozenInlet = graph.inletTemperature();
                q.nextRefresh = iterations_ + refresh;
            } else {
                q.frozen = false;
                q.calm = 0;
                q.lastDelta = -1.0;
                --frozenCount_;
            }
            continue;
        }

        bool calm = !input_changed && delta <= eps;
        if (calm && delta > 0.0) {
            if (q.lastDelta > 0.0 && delta < q.lastDelta) {
                double rho = delta / q.lastDelta;
                double remaining = delta * rho / (1.0 - rho);
                calm = remaining <= eps;
            } else {
                // No decreasing history yet — can't project the tail.
                calm = false;
            }
        }
        q.lastDelta = input_changed ? -1.0 : delta;
        if (calm) {
            if (++q.calm >= config_.quiescenceHoldIterations) {
                q.frozen = true;
                ++frozenCount_;
                q.frozenInlet = graph.inletTemperature();
                q.frozenWatts = graph.poweredWatts();
                q.nextRefresh = iterations_ + refresh;
            }
        } else {
            q.calm = 0;
        }
    }

    ++iterations_;
    if (iterationHook_)
        iterationHook_();
}

bool
Solver::isFrozen(const std::string &machine_name) const
{
    auto it = machineIndex_.find(machine_name);
    if (it == machineIndex_.end())
        MERCURY_PANIC("Solver: unknown machine '", machine_name, "'");
    return quiescence_[it->second].frozen;
}

void
Solver::wakeAllMachines()
{
    for (size_t i = 0; i < quiescence_.size(); ++i) {
        Quiescence &q = quiescence_[i];
        q.frozen = false;
        q.refreshing = false;
        q.calm = 0;
        q.lastDelta = -1.0;
        q.inputSeen = machines_[i]->inputVersion();
    }
    frozenCount_ = 0;
}

void
Solver::setIterationHook(std::function<void()> hook)
{
    iterationHook_ = std::move(hook);
}

void
Solver::run(double seconds)
{
    // Floor plus epsilon: whole iterations that fit into `seconds`,
    // never rounding a trailing fraction up (see the header contract).
    double ratio = seconds / config_.iterationSeconds;
    long steps = static_cast<long>(std::floor(ratio + 1e-9));
    for (long i = 0; i < steps; ++i)
        iterate();
}

double
Solver::emulatedSeconds() const
{
    return static_cast<double>(iterations_) * config_.iterationSeconds;
}

void
Solver::addAlias(const std::string &alias, const std::string &node_name)
{
    aliases_[alias] = node_name;
}

std::string
Solver::resolveNode(const std::string &machine_name,
                    const std::string &component) const
{
    auto resolved = tryResolveNode(machine_name, component);
    if (!resolved) {
        MERCURY_PANIC("Solver: machine '", machine_name,
                      "' has no component '", component, "'");
    }
    return *resolved;
}

std::optional<std::string>
Solver::tryResolveNode(const std::string &machine_name,
                       const std::string &component) const
{
    if (!hasMachine(machine_name))
        return std::nullopt;
    const ThermalGraph &graph = machine(machine_name);
    if (graph.tryNodeId(component))
        return component;
    auto it = aliases_.find(component);
    if (it != aliases_.end() && graph.tryNodeId(it->second))
        return it->second;
    return std::nullopt;
}

double
Solver::temperature(const std::string &machine_name,
                    const std::string &component) const
{
    const ThermalGraph &graph = machine(machine_name);
    return graph.temperature(resolveNode(machine_name, component));
}

void
Solver::setUtilization(const std::string &machine_name,
                       const std::string &component, double value)
{
    ThermalGraph &graph = machine(machine_name);
    graph.setUtilization(resolveNode(machine_name, component), value);
}

std::optional<Solver::NodeRef>
Solver::tryResolveRef(const std::string &machine_name,
                      const std::string &component) const
{
    auto it = machineIndex_.find(machine_name);
    if (it == machineIndex_.end())
        return std::nullopt;
    const ThermalGraph &graph = *machines_[it->second];
    std::optional<NodeId> node = graph.tryNodeId(component);
    if (!node) {
        auto alias = aliases_.find(component);
        if (alias == aliases_.end())
            return std::nullopt;
        node = graph.tryNodeId(alias->second);
        if (!node)
            return std::nullopt;
    }
    NodeRef ref;
    ref.machine = static_cast<uint32_t>(it->second);
    ref.node = static_cast<uint32_t>(*node);
    return ref;
}

Solver::NodeRef
Solver::resolveRef(const std::string &machine_name,
                   const std::string &component) const
{
    auto ref = tryResolveRef(machine_name, component);
    if (!ref) {
        MERCURY_PANIC("Solver: machine '", machine_name,
                      "' has no component '", component, "'");
    }
    return *ref;
}

double
Solver::temperature(NodeRef ref) const
{
    return machines_.at(ref.machine)->temperature(NodeId{ref.node});
}

double
Solver::utilization(NodeRef ref) const
{
    return machines_.at(ref.machine)->utilization(NodeId{ref.node});
}

void
Solver::setUtilization(NodeRef ref, double value)
{
    machines_.at(ref.machine)->setUtilization(NodeId{ref.node}, value);
}

bool
Solver::isPowered(NodeRef ref) const
{
    return machines_.at(ref.machine)->isPowered(NodeId{ref.node});
}

void
Solver::setInletTemperature(const std::string &machine_name, double celsius)
{
    ThermalGraph &graph = machine(machine_name);
    if (room_) {
        room_->setInletOverride(machine_name, celsius);
    } else {
        graph.setInletTemperature(celsius);
    }
}

void
Solver::clearInletOverride(const std::string &machine_name)
{
    if (room_)
        room_->setInletOverride(machine_name, std::nullopt);
}

void
Solver::saveState(std::ostream &out) const
{
    out << "machine,node,temperature_c\n";
    for (const auto &graph : machines_) {
        std::vector<double> temps = graph->temperatures();
        for (NodeId id = 0; id < temps.size(); ++id) {
            out << graph->name() << ',' << graph->nodeName(id)
                << format(",%.9g\n", temps[id]);
        }
    }
}

void
Solver::loadState(std::istream &in)
{
    std::string line;
    size_t line_no = 0;
    size_t applied = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string text = trim(line);
        if (text.empty() || text[0] == '#')
            continue;
        if (line_no == 1 && startsWith(text, "machine"))
            continue;
        std::vector<std::string> cells = split(text, ',');
        if (cells.size() != 3)
            fatal("state line ", line_no, ": expected 3 fields");
        auto value = parseDouble(cells[2]);
        if (!value)
            fatal("state line ", line_no, ": bad temperature");
        if (!hasMachine(cells[0]))
            fatal("state line ", line_no, ": unknown machine '",
                  cells[0], "'");
        ThermalGraph &graph = machine(cells[0]);
        if (!graph.tryNodeId(cells[1]))
            fatal("state line ", line_no, ": unknown node '", cells[1],
                  "'");
        graph.setTemperature(cells[1], *value);
        ++applied;
    }
    if (applied == 0)
        fatal("loadState: no temperatures found");
}

} // namespace core
} // namespace mercury
