#include "core/machine_batch.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "core/thermal_graph.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace mercury {
namespace core {

namespace {

bool
isAirKind(NodeKind kind)
{
    return kind == NodeKind::Air || kind == NodeKind::Inlet ||
           kind == NodeKind::Exhaust;
}

/** CSR offsets from per-row degrees. */
std::vector<uint32_t>
offsetsOf(const std::vector<uint32_t> &degree)
{
    std::vector<uint32_t> offsets(degree.size() + 1, 0);
    for (size_t i = 0; i < degree.size(); ++i)
        offsets[i + 1] = offsets[i] + degree[i];
    return offsets;
}

template <typename T>
void
hashInto(size_t &seed, const std::vector<T> &values)
{
    for (const T &value : values) {
        seed ^= std::hash<uint64_t>()(static_cast<uint64_t>(value)) +
                0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    seed ^= values.size() + 0x9e3779b97f4a7c15ULL + (seed << 6);
}

/** Copy one lane of every row of a lane-minor array. */
template <typename T>
void
copyRows(std::vector<T> &dst, size_t dst_lanes, size_t to,
         const std::vector<T> &src, size_t src_lanes, size_t from)
{
    size_t rows = src.size() / src_lanes;
    if (dst.size() / dst_lanes != rows)
        MERCURY_PANIC("MachineBatch::copyLane: row shapes differ");
    for (size_t r = 0; r < rows; ++r)
        dst[r * dst_lanes + to] = src[r * src_lanes + from];
}

} // namespace

std::shared_ptr<const Topology>
Topology::build(std::vector<NodeKind> kinds, std::vector<uint32_t> powered,
                std::vector<uint32_t> heat_a, std::vector<uint32_t> heat_b,
                std::vector<uint32_t> air_from, std::vector<uint32_t> air_to)
{
    auto topo = std::make_shared<Topology>();
    Topology &t = *topo;
    t.kinds = std::move(kinds);
    t.powered = std::move(powered);
    t.heatA = std::move(heat_a);
    t.heatB = std::move(heat_b);
    t.airFrom = std::move(air_from);
    t.airTo = std::move(air_to);
    size_t count = t.kinds.size();

    for (uint32_t id = 0; id < count; ++id) {
        if (!std::binary_search(t.powered.begin(), t.powered.end(), id))
            t.unpowered.push_back(id);
        if (t.kinds[id] == NodeKind::Component)
            t.solids.push_back(id);
        if (t.kinds[id] == NodeKind::Inlet)
            t.inlet = id;
        if (t.kinds[id] == NodeKind::Exhaust)
            t.exhaust = id;
    }

    // Heat CSR: for each edge in spec order, the a endpoint then b.
    std::vector<uint32_t> degree(count, 0);
    for (size_t i = 0; i < t.heatA.size(); ++i) {
        ++degree[t.heatA[i]];
        ++degree[t.heatB[i]];
    }
    t.heatOffsets = offsetsOf(degree);
    t.heatCsrEdge.assign(t.heatOffsets[count], 0);
    t.heatCsrOther.assign(t.heatOffsets[count], 0);
    std::vector<uint32_t> cursor(t.heatOffsets.begin(),
                                 t.heatOffsets.end() - 1);
    for (size_t i = 0; i < t.heatA.size(); ++i) {
        uint32_t slot_a = cursor[t.heatA[i]]++;
        t.heatCsrEdge[slot_a] = static_cast<uint32_t>(i);
        t.heatCsrOther[slot_a] = t.heatB[i];
        uint32_t slot_b = cursor[t.heatB[i]]++;
        t.heatCsrEdge[slot_b] = static_cast<uint32_t>(i);
        t.heatCsrOther[slot_b] = t.heatA[i];
    }

    // Incoming air CSR, in spec order.
    std::vector<uint32_t> in_degree(count, 0);
    for (uint32_t to : t.airTo)
        ++in_degree[to];
    t.airInOffsets = offsetsOf(in_degree);
    t.airInFrom.assign(t.airInOffsets[count], 0);
    t.airInEdge.assign(t.airInOffsets[count], 0);
    cursor.assign(t.airInOffsets.begin(), t.airInOffsets.end() - 1);
    for (size_t i = 0; i < t.airTo.size(); ++i) {
        uint32_t slot = cursor[t.airTo[i]]++;
        t.airInFrom[slot] = t.airFrom[i];
        t.airInEdge[slot] = static_cast<uint32_t>(i);
    }

    // Topological order over air vertices (Kahn, smallest ready id
    // first for determinism). The spec validator guaranteed
    // acyclicity.
    std::vector<uint32_t> ready;
    for (uint32_t id = 0; id < count; ++id) {
        if (isAirKind(t.kinds[id]) && in_degree[id] == 0)
            ready.push_back(id);
    }
    std::vector<uint32_t> remaining = in_degree;
    while (!ready.empty()) {
        auto it = std::min_element(ready.begin(), ready.end());
        uint32_t id = *it;
        ready.erase(it);
        t.flowOrder.push_back(id);
        for (size_t i = 0; i < t.airFrom.size(); ++i) {
            if (t.airFrom[i] == id && --remaining[t.airTo[i]] == 0)
                ready.push_back(t.airTo[i]);
        }
    }
    // The march excludes the inlet (a boundary) but includes
    // everything downstream of it.
    for (uint32_t id : t.flowOrder) {
        if (id != t.inlet)
            t.airOrder.push_back(id);
    }
    return topo;
}

bool
Topology::sameKey(const Topology &other) const
{
    return kinds == other.kinds && powered == other.powered &&
           heatA == other.heatA && heatB == other.heatB &&
           airFrom == other.airFrom && airTo == other.airTo;
}

size_t
Topology::keyHash() const
{
    size_t seed = 0;
    hashInto(seed, kinds);
    hashInto(seed, powered);
    hashInto(seed, heatA);
    hashInto(seed, heatB);
    hashInto(seed, airFrom);
    hashInto(seed, airTo);
    return seed;
}

MachineBatch::MachineBatch(std::shared_ptr<const Topology> topology,
                           size_t lanes)
    : graphs(lanes, nullptr), topology_(std::move(topology)), lanes_(lanes)
{
    if (lanes_ == 0)
        MERCURY_PANIC("MachineBatch: zero lanes");
    const Topology &t = *topology_;
    size_t nodes = t.nodeCount() * lanes_;
    temperature.assign(nodes, 0.0);
    heatGain.assign(nodes, 0.0);
    massFlow.assign(nodes, 0.0);
    watts.assign(nodes, 0.0);
    invCapacity.assign(nodes, 0.0);
    invStagnant.assign(nodes, 0.0);
    pinValue.assign(nodes, 0.0);
    flowIn.assign(nodes, 0.0);
    pinned.assign(nodes, 0.0);
    heatK.assign(t.heatA.size() * lanes_, 0.0);
    heatCsrK.assign(t.heatCsrEdge.size() * lanes_, 0.0);
    airInWeight.assign(t.airInFrom.size() * lanes_, 0.0);
    energy.assign(lanes_, 0.0);
    lastDelta.assign(lanes_, 0.0);
    planDt.assign(lanes_, 0.0);
    planSubsteps.assign(lanes_, 1);
    planDirty.assign(lanes_, 1);
    planPlain.assign(lanes_, 0);
    inputVersion.assign(lanes_, 0);
    stateVersion.assign(lanes_, 0);
    scratchEnergy_.assign(lanes_, 0.0);
    scratchMix_.assign(lanes_, 0.0);
    scratchNumer_.assign(lanes_, 0.0);
    scratchDenom_.assign(lanes_, 0.0);
}

void
MachineBatch::copyLane(size_t to, const MachineBatch &src, size_t from)
{
    size_t dl = lanes_;
    size_t sl = src.lanes_;
    copyRows(temperature, dl, to, src.temperature, sl, from);
    copyRows(heatGain, dl, to, src.heatGain, sl, from);
    copyRows(massFlow, dl, to, src.massFlow, sl, from);
    copyRows(watts, dl, to, src.watts, sl, from);
    copyRows(invCapacity, dl, to, src.invCapacity, sl, from);
    copyRows(invStagnant, dl, to, src.invStagnant, sl, from);
    copyRows(pinValue, dl, to, src.pinValue, sl, from);
    copyRows(flowIn, dl, to, src.flowIn, sl, from);
    copyRows(pinned, dl, to, src.pinned, sl, from);
    copyRows(heatK, dl, to, src.heatK, sl, from);
    copyRows(heatCsrK, dl, to, src.heatCsrK, sl, from);
    copyRows(airInWeight, dl, to, src.airInWeight, sl, from);
    copyRows(energy, dl, to, src.energy, sl, from);
    copyRows(lastDelta, dl, to, src.lastDelta, sl, from);
    copyRows(planDt, dl, to, src.planDt, sl, from);
    copyRows(planSubsteps, dl, to, src.planSubsteps, sl, from);
    copyRows(planDirty, dl, to, src.planDirty, sl, from);
    copyRows(planPlain, dl, to, src.planPlain, sl, from);
    copyRows(inputVersion, dl, to, src.inputVersion, sl, from);
    copyRows(stateVersion, dl, to, src.stateVersion, sl, from);
}

int
MachineBatch::replan(size_t lane, double dt_seconds)
{
    return graphs[lane]->substepsFor(dt_seconds);
}

bool
MachineBatch::plainLane(size_t lane) const
{
    const Topology &t = *topology_;
    for (size_t id = 0; id < t.nodeCount(); ++id) {
        if (pinned[id * lanes_ + lane] != 0.0)
            return false;
    }
    // The kernel's own comparison, so a NaN flow is not plain.
    for (uint32_t id : t.airOrder) {
        if (!(flowIn[id * lanes_ + lane] > 1e-12))
            return false;
    }
    return true;
}

// x86-64 builds carry a second copy of the kernel compiled for AVX2
// (256-bit vectors, no FMA: contracting a * b + c would change bits).
#if defined(__x86_64__) && defined(__GNUC__)
#define MERCURY_AVX2_KERNEL 1
#endif

namespace {

// The lane loops of MachineBatch::substep. Each takes its rows as
// restrict-qualified parameters, because the rows a loop writes never
// overlap the rows it reads (distinct nodes, edges or scratch rows of
// one batch; the spec validator rejects self-loops and air cycles).
// That, inputs loaded into locals and selects on values let GCC
// vectorize every loop without run-time overlap checks; see
// docs/performance.md, "Vectorized kernel". Each loop keeps the
// per-lane operation sequence of the scalar code, so the vectorized
// kernel gives the same bits.

/** std::max(a, b), selected on values: jump threading turns
 *  std::max's select through a reference into a conditional store,
 *  which keeps the solid and air loops scalar. */
inline double
maxOf(double a, double b)
{
    return a < b ? b : a;
}

/** Joules generated this substep: gain = w dt, sum += gain. */
[[gnu::always_inline]] inline void
generateHeat(size_t count, double dt, const double *__restrict w,
             double *__restrict gain, double *__restrict sum)
{
    for (size_t j = 0; j < count; ++j) {
        double joules = w[j] * dt;
        gain[j] = joules;
        sum[j] += joules;
    }
}

/** consumed += sum. */
[[gnu::always_inline]] inline void
addEnergy(size_t count, double *__restrict consumed,
          const double *__restrict sum)
{
    for (size_t j = 0; j < count; ++j)
        consumed[j] += sum[j];
}

/** Heat along one edge: q = k (Ta - Tb) dt leaves a and reaches b. */
[[gnu::always_inline]] inline void
exchangeHeat(size_t count, double dt, const double *__restrict k,
             const double *__restrict ta, const double *__restrict tb,
             double *__restrict ga, double *__restrict gb)
{
    for (size_t j = 0; j < count; ++j) {
        double q = k[j] * (ta[j] - tb[j]) * dt;
        ga[j] -= q;
        gb[j] += q;
    }
}

/** T += gain / (m c), or T = held for a pinned lane. Plain lanes
 *  (none pinned) compute only the free update, which is what the
 *  select would pick. */
template <bool Plain>
[[gnu::always_inline]] inline void
updateSolid(size_t count, double *__restrict t,
            double *__restrict delta_max, const double *__restrict gain,
            const double *__restrict inv, const double *__restrict pin,
            const double *__restrict held)
{
    for (size_t j = 0; j < count; ++j) {
        double tj = t[j];
        double free = gain[j] * inv[j];
        double delta = free;
        double next = tj + free;
        if constexpr (!Plain) {
            double hj = held[j];
            bool held_here = pin[j] != 0.0;
            delta = held_here ? hj - tj : free;
            next = held_here ? hj : tj + free;
        }
        delta_max[j] = maxOf(delta_max[j], std::fabs(delta));
        t[j] = next;
    }
}

/** One inflow term of the mix: mix = (First ? 0 : mix) + weight up. */
template <bool First>
[[gnu::always_inline]] inline void
mixInflow(size_t count, const double *__restrict weight,
          const double *__restrict up, double *__restrict mix)
{
    for (size_t j = 0; j < count; ++j) {
        double sum = First ? 0.0 : mix[j];
        mix[j] = sum + weight[j] * up[j];
    }
}

/** The last inflow term, seeding the balance: numer = (mix + weight
 *  up) c_air and denom = flow_in c_air. */
template <bool First>
[[gnu::always_inline]] inline void
seedBalance(size_t count, const double *__restrict weight,
            const double *__restrict up, const double *__restrict mix,
            const double *__restrict flow_in, double *__restrict numer,
            double *__restrict denom)
{
    for (size_t j = 0; j < count; ++j) {
        double sum = First ? 0.0 : mix[j];
        numer[j] = (sum + weight[j] * up[j]) * units::kAirSpecificHeat;
        denom[j] = flow_in[j] * units::kAirSpecificHeat;
    }
}

/** The balance of a vertex with no inflow: numer = 0 c_air, denom =
 *  flow_in c_air. */
[[gnu::always_inline]] inline void
seedStagnant(size_t count, const double *__restrict flow_in,
             double *__restrict numer, double *__restrict denom)
{
    for (size_t j = 0; j < count; ++j) {
        numer[j] = 0.0 * units::kAirSpecificHeat;
        denom[j] = flow_in[j] * units::kAirSpecificHeat;
    }
}

/** One heat term of the balance: numer += k T_other, denom += k. */
[[gnu::always_inline]] inline void
addHeatTerm(size_t count, const double *__restrict k,
            const double *__restrict other, double *__restrict numer,
            double *__restrict denom)
{
    for (size_t j = 0; j < count; ++j) {
        double kj = k[j];
        numer[j] += kj * other[j];
        denom[j] += kj;
    }
}

/**
 * An air vertex's new temperature: held for a pinned lane, the
 * implicit balance (numer + w) / denom for a flowing one, T + gain /
 * capacity for stagnant air. FoldLast adds the last heat term
 * (k_last, other_last) to the balance first. Plain lanes (none
 * pinned, every vertex flowing) compute only the balance, which is
 * what the selects would pick; gain, inv, pin, held and flow_in are
 * then not read.
 */
template <bool FoldLast, bool Plain>
[[gnu::always_inline]] inline void
updateAir(size_t count, double *__restrict t,
          double *__restrict delta_max, const double *__restrict numer,
          const double *__restrict denom, const double *__restrict k_last,
          const double *__restrict other_last, const double *__restrict w,
          const double *__restrict gain, const double *__restrict inv,
          const double *__restrict pin, const double *__restrict held,
          const double *__restrict flow_in)
{
    for (size_t j = 0; j < count; ++j) {
        double n = numer[j];
        double d = denom[j];
        if constexpr (FoldLast) {
            double kj = k_last[j];
            n += kj * other_last[j];
            d += kj;
        }
        double tj = t[j];
        double updated = (n + w[j]) / d;
        double delta = updated - tj;
        double next = updated;
        if constexpr (!Plain) {
            double hj = held[j];
            double stagnant = gain[j] * inv[j];
            bool held_here = pin[j] != 0.0;
            bool flowing = flow_in[j] > 1e-12;
            delta = held_here ? hj - tj
                    : flowing ? updated - tj
                              : stagnant;
            next = held_here ? hj
                   : flowing ? updated
                             : tj + stagnant;
        }
        delta_max[j] = maxOf(delta_max[j], std::fabs(delta));
        t[j] = next;
    }
}

/** A pinned inlet (setInletTemperature writes it unpinned) snaps back
 *  to its held value. */
[[gnu::always_inline]] inline void
snapInlet(size_t count, double *__restrict t, double *__restrict delta_max,
          const double *__restrict pin, const double *__restrict held)
{
    for (size_t j = 0; j < count; ++j) {
        double tj = t[j];
        double hj = held[j];
        double m = delta_max[j];
        bool held_here = pin[j] != 0.0;
        double with_pin = maxOf(m, std::fabs(hj - tj));
        double next = held_here ? hj : tj;
        delta_max[j] = held_here ? with_pin : m;
        t[j] = next;
    }
}

MachineBatch::Kernel
detectKernel()
{
#ifdef MERCURY_AVX2_KERNEL
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return MachineBatch::Kernel::Avx2;
#endif
    return MachineBatch::Kernel::Baseline;
}

// Zero-initialised to Baseline, so a step() that ran before this
// initialiser would still run a kernel every CPU has.
std::atomic<MachineBatch::Kernel> g_kernel{detectKernel()};

} // namespace

bool
MachineBatch::kernelAvailable(Kernel kernel)
{
    return kernel == Kernel::Baseline || detectKernel() == kernel;
}

MachineBatch::Kernel
MachineBatch::kernel()
{
    return g_kernel.load();
}

void
MachineBatch::setKernelForTest(Kernel kernel)
{
    if (!kernelAvailable(kernel))
        MERCURY_PANIC("MachineBatch: kernel not available in this build "
                      "or on this CPU");
    g_kernel.store(kernel);
}

void
MachineBatch::step(size_t begin, size_t end, double dt_seconds,
                   int substeps, bool plain)
{
    if (begin >= end || end > lanes_)
        MERCURY_PANIC("MachineBatch::step: bad lane range [", begin, ", ",
                      end, ") of ", lanes_);
    double dt = dt_seconds / substeps;
    size_t count = end - begin;
    std::fill(lastDelta.begin() + begin, lastDelta.begin() + end, 0.0);
    if (count == 1) {
        for (int i = 0; i < substeps; ++i) {
            if (lanes_ == 1)
                substepOneLane<1>(begin, dt);
            else
                substepOneLane<0>(begin, dt);
        }
    }
#ifdef MERCURY_AVX2_KERNEL
    else if (kernel() == Kernel::Avx2) {
        stepWideAvx2(begin, count, dt, substeps, plain);
    }
#endif
    else {
        stepWide(begin, count, dt, substeps, plain);
    }
    for (size_t lane = begin; lane < end; ++lane)
        ++stateVersion[lane];
}

// Each wide kernel inlines its own copies of substep<0, 0, Plain>
// (flatten), so the copies in stepWideAvx2 are compiled for AVX2.
[[gnu::flatten]] void
MachineBatch::stepWide(size_t begin, size_t count, double dt, int substeps,
                       bool plain)
{
    if (plain) {
        for (int i = 0; i < substeps; ++i)
            substep<0, 0, true>(begin, count, dt);
    } else {
        for (int i = 0; i < substeps; ++i)
            substep<0, 0, false>(begin, count, dt);
    }
}

#ifdef MERCURY_AVX2_KERNEL
[[gnu::flatten, gnu::target("avx2")]] void
MachineBatch::stepWideAvx2(size_t begin, size_t count, double dt,
                           int substeps, bool plain)
{
    if (plain) {
        for (int i = 0; i < substeps; ++i)
            substep<0, 0, true>(begin, count, dt);
    } else {
        for (int i = 0; i < substeps; ++i)
            substep<0, 0, false>(begin, count, dt);
    }
}
#endif

template <size_t Lanes>
void
MachineBatch::substepOneLane(size_t lane, double dt)
{
    substep<1, Lanes, false>(lane, 1, dt);
}

template <size_t Width, size_t Lanes, bool Plain>
void
MachineBatch::substep(size_t begin, size_t count_arg, double dt)
{
    const size_t count = Width ? Width : count_arg;
    const Topology &topo = *topology_;
    const size_t lanes = Lanes ? Lanes : lanes_;
    const size_t first = Lanes == 1 ? 0 : begin;
    // Row r of a lane-minor array, offset to the first lane stepped:
    // every loop below indexes lanes [first, first + count) as j.
    auto row = [&](auto &array, size_t r) {
        return array.data() + r * lanes + first;
    };

    // A fixed-width call keeps its lane scratch and running |dT| on
    // the stack, where they live in registers. The mix and balance
    // start zeroed only because GCC cannot see that each is written
    // before it is read. The running |dT| is copied as doubles: a byte
    // copy (std::copy_n) leaves it in an integer register, which costs
    // the one-lane path about 5 %.
    constexpr size_t kStack = Width ? Width : 1;
    double stack_energy[kStack], stack_delta[kStack];
    double stack_mix[kStack] = {}, stack_numer[kStack] = {},
           stack_denom[kStack] = {};
    double *energy_sum = Width ? stack_energy : row(scratchEnergy_, 0);
    double *mix = Width ? stack_mix : row(scratchMix_, 0);
    double *numer = Width ? stack_numer : row(scratchNumer_, 0);
    double *denom = Width ? stack_denom : row(scratchDenom_, 0);
    double *delta_max = Width ? stack_delta : row(lastDelta, 0);
    if constexpr (Width != 0) {
        const double *last = row(lastDelta, 0);
        for (size_t w = 0; w < Width; ++w)
            stack_delta[w] = last[w];
    }

    // 1. Heat generated by each powered component (eq. 3-4), using the
    // power draw cached at the last utilization/model change; every
    // other node starts the substep with no heat.
    if constexpr (Lanes == 1) {
        std::fill(heatGain.begin(), heatGain.end(), 0.0);
    } else {
        for (uint32_t n : topo.unpowered)
            std::fill_n(row(heatGain, n), count, 0.0);
    }
    std::fill_n(energy_sum, count, 0.0);
    for (uint32_t id : topo.powered)
        generateHeat(count, dt, row(watts, id), row(heatGain, id),
                     energy_sum);
    addEnergy(count, row(energy, 0), energy_sum);

    // 2. Heat transferred along every heat edge (eq. 2), using the
    // temperatures at the start of the substep.
    for (size_t i = 0; i < topo.heatA.size(); ++i) {
        exchangeHeat(count, dt, row(heatK, i),
                     row(temperature, topo.heatA[i]),
                     row(temperature, topo.heatB[i]),
                     row(heatGain, topo.heatA[i]),
                     row(heatGain, topo.heatB[i]));
    }

    // 3. Solid temperature update (eq. 5). The per-node change also
    // feeds the quiescence signal: delta_max is computed from exactly
    // the increments applied, so it is free of extra rounding. Both
    // cases are computed and the lane's own is selected, so the loop
    // has no branches to keep it scalar (a plain run has one case).
    for (uint32_t id : topo.solids) {
        updateSolid<Plain>(count, row(temperature, id), delta_max,
                           row(heatGain, id), row(invCapacity, id),
                           row(pinned, id), row(pinValue, id));
    }

    // 4. Air traversal: march downstream from the inlet. Each vertex
    // mixes its inflows perfectly and exchanges heat with its
    // neighbours. The flowing-air balance is solved implicitly —
    //   F_c (Ta - T_mix) = sum_j k_j (T_j - Ta),  F_c = mdot c_air —
    // which is unconditionally stable even when a heat edge's k
    // exceeds the stream's heat-capacity rate, and identical to the
    // explicit form at steady state. Stagnant air (no inflow)
    // integrates like a small thermal mass. Both forms are evaluated
    // for every lane and the lane's own case is selected.
    //
    // Passes are fused where the per-lane sequence allows: the pass
    // adding a vertex's last inflow also seeds the balance, and its
    // last heat term is added in the update pass.
    for (uint32_t id : topo.airOrder) {
        const double *flow_in = row(flowIn, id);

        // Inflow mix 0 + w1 T1 + w2 T2 + ..., in spec order; then
        // numer = mix c_air and denom = flow_in c_air.
        uint32_t in_begin = topo.airInOffsets[id];
        uint32_t in_end = topo.airInOffsets[id + 1];
        if (in_begin == in_end)
            seedStagnant(count, flow_in, numer, denom);
        for (uint32_t slot = in_begin; slot < in_end; ++slot) {
            const double *weight = row(airInWeight, slot);
            const double *up = row(temperature, topo.airInFrom[slot]);
            bool first_term = slot == in_begin;
            if (slot + 1 < in_end && first_term)
                mixInflow<true>(count, weight, up, mix);
            else if (slot + 1 < in_end)
                mixInflow<false>(count, weight, up, mix);
            else if (first_term)
                seedBalance<true>(count, weight, up, mix, flow_in, numer,
                                  denom);
            else
                seedBalance<false>(count, weight, up, mix, flow_in, numer,
                                   denom);
        }

        // Heat terms k_j T_j and k_j, in CSR order.
        uint32_t heat_begin = topo.heatOffsets[id];
        uint32_t heat_end = topo.heatOffsets[id + 1];
        for (uint32_t slot = heat_begin; slot + 1 < heat_end; ++slot) {
            addHeatTerm(count, row(heatCsrK, slot),
                        row(temperature, topo.heatCsrOther[slot]), numer,
                        denom);
        }

        double *t = row(temperature, id);
        const double *w = row(watts, id);
        const double *gain = row(heatGain, id);
        const double *inv = row(invStagnant, id);
        const double *pin = row(pinned, id);
        const double *held = row(pinValue, id);
        if (heat_begin < heat_end) {
            updateAir<true, Plain>(count, t, delta_max, numer, denom,
                                   row(heatCsrK, heat_end - 1),
                                   row(temperature,
                                       topo.heatCsrOther[heat_end - 1]),
                                   w, gain, inv, pin, held, flow_in);
        } else {
            updateAir<false, Plain>(count, t, delta_max, numer, denom,
                                    nullptr, nullptr, w, gain, inv, pin,
                                    held, flow_in);
        }
    }

    // A plain run has no pinned inlet to snap back.
    if constexpr (!Plain) {
        snapInlet(count, row(temperature, topo.inlet), delta_max,
                  row(pinned, topo.inlet), row(pinValue, topo.inlet));
    }
    if constexpr (Width != 0) {
        double *last = row(lastDelta, 0);
        for (size_t w = 0; w < Width; ++w)
            last[w] = stack_delta[w];
    }
}

} // namespace core
} // namespace mercury
