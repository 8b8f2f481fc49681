#include "core/machine_batch.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>

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
    inputVersion.assign(lanes_, 0);
    stateVersion.assign(lanes_, 0);
    scratchEnergy_.assign(lanes_, 0.0);
    scratchMix_.assign(lanes_, 0.0);
    scratchNumer_.assign(lanes_, 0.0);
    scratchDenom_.assign(lanes_, 0.0);
    zeros_.assign(lanes_, 0.0);
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
    copyRows(inputVersion, dl, to, src.inputVersion, sl, from);
    copyRows(stateVersion, dl, to, src.stateVersion, sl, from);
}

int
MachineBatch::replan(size_t lane, double dt_seconds)
{
    return graphs[lane]->substepsFor(dt_seconds);
}

void
MachineBatch::step(size_t begin, size_t end, double dt_seconds,
                   int substeps)
{
    if (begin >= end || end > lanes_)
        MERCURY_PANIC("MachineBatch::step: bad lane range [", begin, ", ",
                      end, ") of ", lanes_);
    double dt = dt_seconds / substeps;
    size_t count = end - begin;
    std::fill(lastDelta.begin() + begin, lastDelta.begin() + end, 0.0);
    for (int i = 0; i < substeps; ++i) {
        if (lanes_ == 1)
            substep<1, 1>(begin, 1, dt);
        else if (count == 1)
            substep<1, 0>(begin, 1, dt);
        else
            substep<0, 0>(begin, count, dt);
    }
    for (size_t lane = begin; lane < end; ++lane)
        ++stateVersion[lane];
}

template <size_t Width, size_t Lanes>
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
    // the stack, where they live in registers.
    constexpr size_t kStack = Width ? Width : 1;
    double stack_energy[kStack], stack_mix[kStack], stack_numer[kStack],
        stack_denom[kStack], stack_delta[kStack];
    const double stack_zero[kStack] = {};
    double *energy_sum = Width ? stack_energy : row(scratchEnergy_, 0);
    double *mix = Width ? stack_mix : row(scratchMix_, 0);
    double *numer = Width ? stack_numer : row(scratchNumer_, 0);
    double *denom = Width ? stack_denom : row(scratchDenom_, 0);
    const double *zero = Width ? stack_zero : row(zeros_, 0);
    double *delta_max = Width ? stack_delta : row(lastDelta, 0);
    if constexpr (Width != 0)
        std::copy_n(row(lastDelta, 0), Width, delta_max);

    // 1. Heat generated by each powered component (eq. 3-4), using the
    // power draw cached at the last utilization/model change; every
    // other node starts the substep with no heat.
    if constexpr (Lanes == 1) {
        std::fill(heatGain.begin(), heatGain.end(), 0.0);
    } else {
        for (uint32_t n : topo.unpowered) {
            double *gain = row(heatGain, n);
            for (size_t j = 0; j < count; ++j)
                gain[j] = 0.0;
        }
    }
    for (size_t j = 0; j < count; ++j)
        energy_sum[j] = 0.0;
    for (uint32_t id : topo.powered) {
        const double *w = row(watts, id);
        double *gain = row(heatGain, id);
        for (size_t j = 0; j < count; ++j) {
            double joules = w[j] * dt;
            gain[j] = joules;
            energy_sum[j] += joules;
        }
    }
    double *consumed = row(energy, 0);
    for (size_t j = 0; j < count; ++j)
        consumed[j] += energy_sum[j];

    // 2. Heat transferred along every heat edge (eq. 2), using the
    // temperatures at the start of the substep.
    for (size_t i = 0; i < topo.heatA.size(); ++i) {
        const double *k = row(heatK, i);
        const double *ta = row(temperature, topo.heatA[i]);
        const double *tb = row(temperature, topo.heatB[i]);
        double *ga = row(heatGain, topo.heatA[i]);
        double *gb = row(heatGain, topo.heatB[i]);
        for (size_t j = 0; j < count; ++j) {
            double q = k[j] * (ta[j] - tb[j]) * dt;
            ga[j] -= q;
            gb[j] += q;
        }
    }

    // 3. Solid temperature update (eq. 5). The per-node change also
    // feeds the quiescence signal: delta_max is computed from exactly
    // the increments applied, so it is free of extra rounding.
    for (uint32_t id : topo.solids) {
        double *t = row(temperature, id);
        const double *gain = row(heatGain, id);
        const double *inv = row(invCapacity, id);
        const double *pin = row(pinned, id);
        const double *held = row(pinValue, id);
        for (size_t j = 0; j < count; ++j) {
            // Both cases are computed and the lane's own is selected,
            // so the loop has no branches to keep it scalar.
            double to_held = held[j] - t[j];
            double free = gain[j] * inv[j];
            double freed = t[j] + free;
            bool held_here = pin[j] != 0.0;
            delta_max[j] = std::max(delta_max[j],
                                    std::fabs(held_here ? to_held : free));
            t[j] = held_here ? held[j] : freed;
        }
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
        if (in_begin == in_end) {
            for (size_t j = 0; j < count; ++j) {
                numer[j] = 0.0 * units::kAirSpecificHeat;
                denom[j] = flow_in[j] * units::kAirSpecificHeat;
            }
        }
        for (uint32_t slot = in_begin; slot < in_end; ++slot) {
            const double *weight = row(airInWeight, slot);
            const double *up = row(temperature, topo.airInFrom[slot]);
            const double *sum = slot == in_begin ? zero : mix;
            if (slot + 1 < in_end) {
                for (size_t j = 0; j < count; ++j)
                    mix[j] = sum[j] + weight[j] * up[j];
                continue;
            }
            for (size_t j = 0; j < count; ++j) {
                numer[j] = (sum[j] + weight[j] * up[j]) *
                           units::kAirSpecificHeat;
                denom[j] = flow_in[j] * units::kAirSpecificHeat;
            }
        }

        // Heat terms k_j T_j and k_j, in CSR order.
        uint32_t heat_begin = topo.heatOffsets[id];
        uint32_t heat_end = topo.heatOffsets[id + 1];
        for (uint32_t slot = heat_begin; slot + 1 < heat_end; ++slot) {
            const double *k = row(heatCsrK, slot);
            const double *other = row(temperature, topo.heatCsrOther[slot]);
            for (size_t j = 0; j < count; ++j) {
                numer[j] += k[j] * other[j];
                denom[j] += k[j];
            }
        }
        const double *k_last = nullptr;
        const double *other_last = nullptr;
        if (heat_begin < heat_end) {
            k_last = row(heatCsrK, heat_end - 1);
            other_last = row(temperature, topo.heatCsrOther[heat_end - 1]);
        }

        double *t = row(temperature, id);
        const double *w = row(watts, id);
        const double *gain = row(heatGain, id);
        const double *inv = row(invStagnant, id);
        const double *pin = row(pinned, id);
        const double *held = row(pinValue, id);
        auto update = [&](auto fold_last_heat_term) {
            for (size_t j = 0; j < count; ++j) {
                double n = numer[j];
                double d = denom[j];
                if constexpr (decltype(fold_last_heat_term)::value) {
                    n += k_last[j] * other_last[j];
                    d += k_last[j];
                }
                double to_held = held[j] - t[j];
                double updated = (n + w[j]) / d;
                double to_updated = updated - t[j];
                double stagnant = gain[j] * inv[j];
                double warmed = t[j] + stagnant;
                bool held_here = pin[j] != 0.0;
                bool flowing = flow_in[j] > 1e-12;
                double delta = held_here ? to_held
                               : flowing ? to_updated
                                         : stagnant;
                double next = held_here ? held[j]
                              : flowing ? updated
                                        : warmed;
                delta_max[j] = std::max(delta_max[j], std::fabs(delta));
                t[j] = next;
            }
        };
        if (k_last)
            update(std::true_type{});
        else
            update(std::false_type{});
    }

    // A pinned inlet (setInletTemperature writes it unpinned) snaps
    // back to its held value.
    {
        double *t = row(temperature, topo.inlet);
        const double *pin = row(pinned, topo.inlet);
        const double *held = row(pinValue, topo.inlet);
        for (size_t j = 0; j < count; ++j) {
            double with_pin =
                std::max(delta_max[j], std::fabs(held[j] - t[j]));
            delta_max[j] = pin[j] != 0.0 ? with_pin : delta_max[j];
            t[j] = pin[j] != 0.0 ? held[j] : t[j];
        }
    }
    if constexpr (Width != 0)
        std::copy_n(delta_max, Width, row(lastDelta, 0));
}

} // namespace core
} // namespace mercury
