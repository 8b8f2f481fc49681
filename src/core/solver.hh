/**
 * @file
 * The Mercury solver: owns the machine models and the optional room
 * model, advances them in lock-step iterations (one per emulated
 * second by default) and answers temperature queries by name.
 *
 * In the paper this logic runs inside the `solver` process on a
 * separate machine; here it is a library class that the solver daemon
 * (apps/mercury_solverd.cc), the offline trace runner, the benches and
 * the tests all share.
 */

#ifndef MERCURY_CORE_SOLVER_HH
#define MERCURY_CORE_SOLVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/room.hh"
#include "core/spec.hh"
#include "core/thermal_graph.hh"

namespace mercury {

class ThreadPool;

namespace core {

/** Solver tuning knobs. */
struct SolverConfig
{
    /** Emulated seconds advanced per iterate() call (paper: 1 s). */
    double iterationSeconds = 1.0;

    /**
     * Machine-stepping parallelism: 1 = serial (the default, no pool),
     * 0 = one executor per hardware thread, N = at most N executors.
     * Within an iteration machines only couple through the room model,
     * which runs as a separate serial phase first, so fanning lane
     * chunks of the machine batches across a pool is deterministic:
     * any thread count produces bitwise-identical temperatures. Fleets
     * narrower than two lane chunks (Solver::kLaneChunk machines each)
     * step inline whatever this says. Serial is the default because
     * the pool adds CPU at every fleet size and saves wall time only
     * from a few thousand machines (docs/performance.md, "Runs,
     * chunks and the pool").
     */
    unsigned threads = 1;

    /**
     * Quiescence-aware active-set stepping. 0 (the default) disables
     * it entirely — iterate() is bitwise-identical to the classic
     * all-machines path. A positive epsilon [degC] lets the solver
     * freeze a machine whose temperatures have converged (its max
     * per-node |dT| and its projected remaining drift both under
     * epsilon for quiescenceHoldIterations consecutive iterations,
     * with no input change) and skip its step() until something wakes
     * it: any input mutation, a delivered inlet temperature more than
     * epsilon away from the frozen value, or checkpoint restore.
     * Epsilon bounds the trajectory error a freeze may introduce.
     */
    double quiescenceEpsilon = 0.0;

    /** Consecutive calm iterations required before freezing. */
    unsigned quiescenceHoldIterations = 3;

    /**
     * Forced re-step period for frozen machines: every N iterations a
     * frozen machine steps once anyway, bounding drift and
     * re-validating the freeze (a re-step whose |dT| exceeds epsilon
     * wakes the machine). 0 disables the refresh.
     */
    unsigned quiescenceRefreshIterations = 64;
};

/**
 * Whole-system temperature emulator.
 */
class Solver
{
  public:
    /**
     * Resolved handle to one node of one machine: the fast path for
     * per-second callers (monitord updates, trace replay, recorded
     * sensors) that would otherwise walk the string -> alias -> NodeId
     * map chain on every call. Handles stay valid for the life of the
     * Solver (machines are never removed).
     */
    struct NodeRef
    {
        uint32_t machine = 0;
        uint32_t node = 0;
    };

    explicit Solver(SolverConfig config = {});
    ~Solver();

    Solver(const Solver &) = delete;
    Solver &operator=(const Solver &) = delete;

    /** @name Topology */
    /// @{

    /**
     * Instantiate a machine from its spec; the name must be unique.
     * Fatal (naming the machine) when one iteration would need more
     * than ThermalGraph::kMaxSubsteps substeps.
     */
    ThermalGraph &addMachine(const MachineSpec &spec);

    /** Install the inter-machine room model (after adding machines). */
    void setRoom(const RoomSpec &spec);

    bool hasRoom() const { return room_ != nullptr; }
    RoomModel &room();
    const RoomModel &room() const;

    bool hasMachine(const std::string &machine_name) const;
    ThermalGraph &machine(const std::string &machine_name);
    const ThermalGraph &machine(const std::string &machine_name) const;
    std::vector<std::string> machineNames() const;

    /** Machines by index, in addMachine order (machineNames()' order),
     *  so a checkpoint walks them without name lookups. */
    size_t machineCount() const { return machines_.size(); }
    ThermalGraph &machine(size_t index) { return *machines_.at(index); }
    const ThermalGraph &
    machine(size_t index) const
    {
        return *machines_.at(index);
    }

    /** Index of the named machine; nullopt when there is none. */
    std::optional<size_t> machineIndex(std::string_view machine_name) const;

    /// @}
    /** @name Time stepping */
    /// @{

    /** Advance everything by one iteration period. */
    void iterate();

    /**
     * Advance by @p seconds of emulated time, running exactly
     * floor(seconds / iterationSeconds) whole iterations (with a tiny
     * epsilon so exact multiples are not lost to floating-point
     * division: run(10.0) at 1 s is always 10 iterations, run(10.6)
     * is 10, never 11). A trailing fraction of an iteration is not
     * simulated — check emulatedSeconds() for the actual time reached.
     */
    void run(double seconds);

    /** Iterations completed. Safe to read from any thread (relaxed
     *  atomic): the request plane's stats/metrics paths poll it while
     *  the solver thread steps. */
    uint64_t
    iterations() const
    {
        return iterations_.load(std::memory_order_relaxed);
    }

    double iterationSeconds() const { return config_.iterationSeconds; }
    double emulatedSeconds() const;

    /// @}
    /** @name Quiescence (active-set stepping observability) */
    /// @{

    /** True when a positive quiescenceEpsilon enabled the engine. */
    bool quiescenceEnabled() const
    {
        return config_.quiescenceEpsilon > 0.0;
    }

    /** Machines stepped (or steppable) this iteration. Readable from
     *  any thread, like iterations(). */
    size_t
    activeMachineCount() const
    {
        return machines_.size() -
               frozenCount_.load(std::memory_order_relaxed);
    }

    /**
     * Lanes of each machine batch (one batch per distinct topology),
     * as laid out by the last iterate(); empty before the first.
     */
    std::vector<size_t> batchLanes() const;

    /** Machines currently frozen by the quiescence engine. */
    size_t
    frozenMachineCount() const
    {
        return frozenCount_.load(std::memory_order_relaxed);
    }

    /** True when the named machine is currently frozen. */
    bool isFrozen(const std::string &machine_name) const;

    /**
     * Unfreeze every machine and forget calm history. Checkpoint
     * restore calls this: restored state has no relation to the
     * pre-restore freeze decisions, so waking the whole fleet is the
     * conservative (and always-correct) answer.
     */
    void wakeAllMachines();

    /// @}
    /** @name Checkpoint / hooks */
    /// @{

    /**
     * Overwrite the iteration counter so emulatedSeconds() resumes
     * where a checkpoint left off. Only src/state restore should call
     * this; it does not touch any thermal state.
     */
    void restoreIterationCount(uint64_t iterations)
    {
        iterations_.store(iterations, std::memory_order_relaxed);
    }

    /**
     * Install a hook that runs at the end of every iterate(), after
     * all machines have stepped — the telemetry plane publishes its
     * shared-memory snapshot here. One hook at a time; pass nullptr
     * to remove. The hook runs on whichever thread called iterate().
     */
    void setIterationHook(std::function<void()> hook);

    /// @}
    /** @name Named queries (sensor interface) */
    /// @{

    /**
     * Register an alias so user-facing component names map onto graph
     * nodes (e.g. the paper opens the sensor "disk", which reads the
     * disk_platters vertex). Aliases apply to every machine.
     */
    void addAlias(const std::string &alias, const std::string &node_name);

    /** Resolve a component name to a node name for a given machine. */
    std::string resolveNode(const std::string &machine_name,
                            const std::string &component) const;

    /** Like resolveNode but returns nullopt instead of panicking —
     *  used by the network-facing daemons, which must stay up when a
     *  peer sends garbage. */
    std::optional<std::string>
    tryResolveNode(const std::string &machine_name,
                   const std::string &component) const;

    /** Temperature of a component, through the alias map [degC]. */
    double temperature(const std::string &machine_name,
                       const std::string &component) const;

    /** Update a component's utilization (monitord's entry point). */
    void setUtilization(const std::string &machine_name,
                        const std::string &component, double value);

    /// @}
    /** @name Resolved-handle fast path */
    /// @{

    /** Resolve through the alias map; nullopt when unknown. */
    std::optional<NodeRef>
    tryResolveRef(const std::string &machine_name,
                  const std::string &component) const;

    /** Like tryResolveRef but panics on unknown targets. */
    NodeRef resolveRef(const std::string &machine_name,
                       const std::string &component) const;

    double temperature(NodeRef ref) const;
    double utilization(NodeRef ref) const;
    void setUtilization(NodeRef ref, double value);

    /** True when the referenced node carries a power model. */
    bool isPowered(NodeRef ref) const;

    /** The component alias map (telemetry publishes it to readers). */
    const std::map<std::string, std::string> &aliases() const
    {
        return aliases_;
    }

    /// @}
    /** @name Environment control (fiddle's entry points) */
    /// @{

    /**
     * Force a machine's inlet temperature. With a room model this
     * installs an override (so the room stops driving that inlet);
     * standalone it writes the boundary directly.
     */
    void setInletTemperature(const std::string &machine_name,
                             double celsius);

    /** Return the inlet to room control (no-op without a room). */
    void clearInletOverride(const std::string &machine_name);

    /// @}
    /** @name State snapshots */
    /// @{

    /**
     * Save every node temperature as CSV
     * (`machine,node,temperature_c`). Together with loadState this
     * warm-starts long experiments past their thermal transient.
     */
    void saveState(std::ostream &out) const;

    /**
     * Restore temperatures from saveState output. Unknown machines or
     * nodes are fatal (the topology must match).
     */
    void loadState(std::istream &in);

    /// @}

    /**
     * Lanes per unit of pool work. A batch steps in runs of at most
     * this many lanes; a step that covers fewer than two chunks of
     * lanes runs inline, because waking the pool costs more than it
     * saves there (docs/performance.md has the measurement).
     */
    static constexpr size_t kLaneChunk = 256;

  private:
    /** Lazily build the worker pool once machines exist. */
    ThreadPool *pool();

    /** iterate() body when quiescenceEpsilon > 0. */
    void iterateActiveSet();

    /** True when a machine was added or left its batch since the
     *  last rebuildBatches(). */
    bool layoutStale() const;

    /** Regroup every machine into one batch per distinct topology, in
     *  machine order, copying each lane's state. */
    void rebuildBatches();

    /** Fill runs_ with the lanes @p wanted(batch, lane) selects: runs
     *  of consecutive lanes planning the same substep count and the
     *  same plainness, at most kLaneChunk long. */
    template <typename Wanted>
    void planRuns(double dt, Wanted wanted);

    /** Step runs_ by @p dt, across the pool when @p lanes (the lanes
     *  they cover) span two chunks or more. */
    void stepRuns(double dt, size_t lanes);

    /** A contiguous lane range of one batch stepped by one call. */
    struct LaneRun
    {
        MachineBatch *batch;
        size_t begin;
        size_t end;
        int substeps;
        bool plain; //!< every lane is plain (MachineBatch::plainLane)
    };

    /**
     * Per-machine quiescence bookkeeping. A machine freezes after
     * quiescenceHoldIterations consecutive "calm" iterations: inputs
     * unchanged, max |dT| <= epsilon, and the projected remaining
     * drift — the geometric tail delta * rho / (1 - rho) estimated
     * from consecutive deltas — also <= epsilon. The projection is
     * what makes epsilon a bound on trajectory error: near a thermal
     * time constant of T iterations, a per-step delta just under
     * epsilon still has ~T * epsilon of approach left, so freezing on
     * the raw delta alone could park a machine degrees away from
     * where the exact solver ends up.
     */
    struct Quiescence
    {
        uint64_t inputSeen = 0;   //!< graph inputVersion() last seen
        double lastDelta = -1.0;  //!< previous step's max |dT| (<0 none)
        uint32_t calm = 0;        //!< consecutive calm iterations
        bool frozen = false;
        bool refreshing = false;  //!< this iteration is a forced re-step
        double frozenInlet = 0.0; //!< inlet at freeze / last refresh
        double frozenWatts = 0.0; //!< poweredWatts() cached at freeze
        uint64_t nextRefresh = 0; //!< iteration of the next forced step
        bool stepping = false;    //!< steps in the current iteration
    };

    /** std::hash<std::string_view>, usable for std::string keys and
     *  string_view lookups alike (heterogeneous lookup). */
    struct NameHash
    {
        using is_transparent = void;
        size_t
        operator()(std::string_view name) const
        {
            return std::hash<std::string_view>()(name);
        }
    };

    SolverConfig config_;
    std::vector<std::unique_ptr<ThermalGraph>> machines_;
    std::unordered_map<std::string, size_t, NameHash, std::equal_to<>>
        machineIndex_;
    std::unique_ptr<RoomModel> room_;
    std::map<std::string, std::string> aliases_;

    /** Atomic (relaxed) so the sharded request plane's stats and
     *  metrics callbacks can read progress while iterate() runs. All
     *  mutation still happens on the one stepping thread. */
    std::atomic<uint64_t> iterations_{0};
    std::function<void()> iterationHook_;

    std::unique_ptr<ThreadPool> pool_; //!< null until first parallel use
    bool poolDecided_ = false;         //!< pool_ creation attempted

    std::vector<Quiescence> quiescence_; //!< parallel to machines_
    std::vector<size_t> activeScratch_;  //!< machines stepping this turn
    std::atomic<size_t> frozenCount_{0}; //!< relaxed; see iterations_

    /** One batch per distinct topology; laneMachine_[b][lane] is the
     *  machine index viewing that lane. Destroyed before machines_. */
    std::vector<std::unique_ptr<MachineBatch>> batches_;
    std::vector<std::vector<size_t>> laneMachine_;
    bool layoutDirty_ = true; //!< machines added since the last rebuild
    std::vector<LaneRun> runs_; //!< scratch: this iteration's runs
};

} // namespace core
} // namespace mercury

#endif // MERCURY_CORE_SOLVER_HH
