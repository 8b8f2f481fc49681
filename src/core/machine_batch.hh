/**
 * @file
 * Batched machine state: the storage and the stepping kernel behind
 * every ThermalGraph.
 *
 * Machines that share a topology (node kinds, powered set, heat- and
 * air-edge endpoint lists in spec order) share one MachineBatch. The
 * topology and its CSR adjacency are stored once; every per-machine
 * quantity the kernel touches lives in a lane-minor array
 * x[row * lanes + lane], one lane per machine. A substep walks the
 * paper's four traversals (heat generation, heat edges, solid update,
 * implicit air march) once for the whole batch, with a contiguous
 * lane loop innermost.
 *
 * Bitwise contract: each lane executes exactly the scalar operation
 * sequence of one machine stepped alone — same accumulation order,
 * per-lane selects instead of branches or reordering — so a batch
 * produces the temperatures and energy a per-machine loop would, bit
 * for bit, whatever its lane count or the lane range a call covers.
 * A standalone ThermalGraph owns a one-lane batch; its step() is the
 * one-lane call of the same kernel.
 */

#ifndef MERCURY_CORE_MACHINE_BATCH_HH
#define MERCURY_CORE_MACHINE_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/spec.hh"

namespace mercury {
namespace core {

class ThermalGraph;

/**
 * What every lane of a batch shares. The key fields (kinds, powered,
 * heat and air endpoints) define equality; the rest is derived from
 * them once.
 */
struct Topology
{
    /** @name Key */
    /// @{
    std::vector<NodeKind> kinds;
    std::vector<uint32_t> powered; //!< powered node ids, ascending
    std::vector<uint32_t> heatA;   //!< heat edge endpoints, spec order
    std::vector<uint32_t> heatB;
    std::vector<uint32_t> airFrom; //!< air edge endpoints, spec order
    std::vector<uint32_t> airTo;
    /// @}

    uint32_t inlet = 0;
    uint32_t exhaust = 0;
    std::vector<uint32_t> unpowered; //!< every other node id, ascending
    std::vector<uint32_t> solids;    //!< Component ids, ascending
    std::vector<uint32_t> flowOrder; //!< air vertices, topological
    std::vector<uint32_t> airOrder;  //!< flowOrder without the inlet

    /** @name CSR adjacency
     * heat*: heat edges incident to each node; for row i the slots are
     * [heatOffsets[i], heatOffsets[i+1]), filled per edge in spec
     * order, a endpoint then b. airIn*: incoming air edges per node,
     * in spec order.
     */
    /// @{
    std::vector<uint32_t> heatOffsets;
    std::vector<uint32_t> heatCsrEdge;  //!< edge index per slot
    std::vector<uint32_t> heatCsrOther; //!< opposite endpoint per slot
    std::vector<uint32_t> airInOffsets;
    std::vector<uint32_t> airInFrom; //!< upstream vertex per slot
    std::vector<uint32_t> airInEdge; //!< air edge index per slot
    /// @}

    /** Derive the orders and CSR rows from the key fields. */
    static std::shared_ptr<const Topology>
    build(std::vector<NodeKind> kinds, std::vector<uint32_t> powered,
          std::vector<uint32_t> heat_a, std::vector<uint32_t> heat_b,
          std::vector<uint32_t> air_from, std::vector<uint32_t> air_to);

    size_t nodeCount() const { return kinds.size(); }

    /** True when the key fields are equal (the batching criterion). */
    bool sameKey(const Topology &other) const;

    /** Hash of the key fields. */
    size_t keyHash() const;
};

/**
 * Lane-minor state of the machines that share one Topology.
 */
class MachineBatch
{
  public:
    MachineBatch(std::shared_ptr<const Topology> topology, size_t lanes);

    MachineBatch(const MachineBatch &) = delete;
    MachineBatch &operator=(const MachineBatch &) = delete;

    const Topology &topology() const { return *topology_; }
    const std::shared_ptr<const Topology> &sharedTopology() const
    {
        return topology_;
    }
    size_t lanes() const { return lanes_; }

    /**
     * Advance lanes [begin, end) by @p dt_seconds in @p substeps
     * explicit-Euler substeps each; every lane in the range must plan
     * the same substep count. Each lane's max per-node |dT| over the
     * step lands in lastDelta and its stateVersion is bumped. Calls on
     * disjoint lane ranges may run concurrently.
     *
     * @p plain may be true only when every lane in the range is plain
     * (planPlain): a step of two or more lanes then computes only the
     * unpinned, flowing case of each select, which is what the
     * selects pick for such lanes, so the bits are the same. A
     * one-lane step always runs the general substep.
     */
    void step(size_t begin, size_t end, double dt_seconds, int substeps,
              bool plain);

    /**
     * The instruction sets a step of two or more lanes is built for,
     * from one source: Baseline for the build's target, and on x86-64
     * also Avx2 (256-bit vectors, without FMA or AVX-512, which would
     * change bits). Every kernel gives the same bits. A one-lane step
     * is scalar code, the same on every CPU.
     */
    enum class Kernel { Baseline, Avx2 };

    /** True when this build has @p kernel and this CPU can run it. */
    static bool kernelAvailable(Kernel kernel);

    /** The kernel a step of two or more lanes runs: Avx2 where
     *  available, else Baseline, chosen once per process. */
    static Kernel kernel();

    /** Make every step() from now on run @p kernel (tests only).
     *  Panics when it is not available. */
    static void setKernelForTest(Kernel kernel);

    /** Substep count lane @p lane plans for @p dt_seconds: the cached
     *  plan, or its graph's ThermalGraph::substepsFor on a miss, which
     *  also refreshes planPlain. */
    int
    substepsFor(size_t lane, double dt_seconds)
    {
        if (!planDirty[lane] && dt_seconds == planDt[lane])
            return planSubsteps[lane];
        return replan(lane, dt_seconds);
    }

    /**
     * True when lane @p lane is plain: no node is pinned (the inlet
     * included) and every air vertex the march updates has inflow
     * above the kernel's 1e-12 kg/s, which a NaN flow does not. Only
     * pins, fan flows and air fractions decide it, and each of those
     * mutations dirties the plan, so the plan caches it (planPlain).
     */
    bool plainLane(size_t lane) const;

    /** Copy every per-lane value of @p src's lane @p from into lane
     *  @p to. The two topologies must have the same row shapes. */
    void copyLane(size_t to, const MachineBatch &src, size_t from);

    /** The graph viewing each lane; null for a vacated lane. */
    std::vector<ThermalGraph *> graphs;

    /** Lanes whose graph left for another batch. */
    size_t vacancies = 0;

    /** @name Lane-minor arrays: element [row * lanes() + lane]
     * Node rows: temperature .. flowIn, pinned. Heat-edge rows: heatK.
     * Heat CSR slot rows: heatCsrK (mirror of heatK per slot). Air-in
     * slot rows: airInWeight (fraction * massFlow(from)). Single-row
     * (per-lane) arrays: the rest.
     */
    /// @{
    std::vector<double> temperature; //!< degC
    std::vector<double> heatGain;    //!< scratch: J this substep
    std::vector<double> massFlow;    //!< kg/s through air vertices
    std::vector<double> watts;       //!< cached P(utilization)
    std::vector<double> invCapacity; //!< 1/(m c) for solids, else 0
    std::vector<double> invStagnant; //!< 1/capacity for stagnant air
    std::vector<double> pinValue;    //!< pinned temperature [degC]
    std::vector<double> flowIn;      //!< total inflow per node [kg/s]
    /** 1.0 while the temperature is held, else 0.0: a double, so the
     *  kernel's per-lane selects compare and blend whole vectors of
     *  doubles. */
    std::vector<double> pinned;

    std::vector<double> heatK;       //!< W/K per heat edge
    std::vector<double> heatCsrK;    //!< heatK mirrored per CSR slot
    std::vector<double> airInWeight; //!< per incoming air slot

    std::vector<double> energy;      //!< J integrated since construction
    std::vector<double> lastDelta;   //!< max |dT| of the last step()
    std::vector<double> planDt;      //!< dt the cached plan is for
    std::vector<int> planSubsteps;   //!< cached substep count
    std::vector<uint8_t> planDirty;  //!< plan needs recomputing
    std::vector<uint8_t> planPlain;  //!< plainLane() at the last plan
    std::vector<uint64_t> inputVersion;
    std::vector<uint64_t> stateVersion;
    /// @}

  private:
    int replan(size_t lane, double dt_seconds);

    /** step()'s substep loop for a call of two or more lanes, once per
     *  kernel: the same loop compiled for each instruction set, with a
     *  plain and a general substep each. stepWideAvx2 exists in x86-64
     *  builds only. A one-lane call is scalar code and runs the same on
     *  every CPU. */
    void stepWide(size_t begin, size_t count, double dt, int substeps,
                  bool plain);
    void stepWideAvx2(size_t begin, size_t count, double dt, int substeps,
                      bool plain);

    /** substep<1, Lanes, false>, kept out of line for a one-lane step():
     *  inlined into step(), it made that path about 4 % slower. */
    template <size_t Lanes>
    [[gnu::noinline]] void substepOneLane(size_t lane, double dt);

    /**
     * One explicit-Euler substep of lanes [begin, begin + count).
     * Width 0 takes count from the caller; a nonzero Width fixes it at
     * compile time (a one-lane call) and keeps the lane scratch on the
     * stack. Lanes likewise fixes the batch's lane count when nonzero
     * (a standalone graph's one-lane batch). Plain, for lanes that are
     * all plain, drops the pinned and stagnant cases of each select
     * and the inlet snap. Same source, same operation sequence for
     * every instantiation.
     */
    template <size_t Width, size_t Lanes, bool Plain>
    void substep(size_t begin, size_t count, double dt);

    std::shared_ptr<const Topology> topology_;
    size_t lanes_;

    /** Per-lane scratch for the air march and the energy sum. */
    std::vector<double> scratchEnergy_;
    std::vector<double> scratchMix_;
    std::vector<double> scratchNumer_;
    std::vector<double> scratchDenom_;
};

} // namespace core
} // namespace mercury

#endif // MERCURY_CORE_MACHINE_BATCH_HH
