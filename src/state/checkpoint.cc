#include "state/checkpoint.hh"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>

#include "core/solver.hh"
#include "util/bytes.hh"
#include "util/crc32c.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace state {

namespace {

/** Hard ceilings a well-formed file can never exceed; anything above
 *  is garbage regardless of what the CRC says. */
constexpr uint32_t kMaxMachines = 1u << 20;
constexpr uint32_t kMaxNodes = 1u << 22;
constexpr uint32_t kMaxEdges = 1u << 22;
constexpr uint32_t kMaxSenders = 1u << 20;
constexpr size_t kMaxStringBytes = 4096;
constexpr size_t kMaxFileBytes = 256u << 20; // 256 MiB

constexpr size_t kHeaderBytes = 24;

uint64_t
nowNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** atomicWriteFile() of an encoded checkpoint. */
bool
writeCheckpointBytes(const std::string &path,
                     const std::vector<uint8_t> &bytes, std::string *error)
{
    return atomicWriteFile(
        path,
        std::string_view(reinterpret_cast<const char *>(bytes.data()),
                         bytes.size()),
        error);
}

} // namespace

uint64_t
topologyHash(const core::Solver &solver)
{
    Fnv1a fnv;
    fnv.str("mercury-topology-v1");
    fnv.u64(solver.machineCount());
    for (size_t m = 0; m < solver.machineCount(); ++m) {
        const core::ThermalGraph &machine = solver.machine(m);
        fnv.str(machine.name());
        fnv.u64(machine.nodeCount());
        for (size_t id = 0; id < machine.nodeCount(); ++id)
            fnv.str(machine.nodeName(id));
        fnv.u64(machine.heatEdgeCount());
        for (size_t i = 0; i < machine.heatEdgeCount(); ++i) {
            core::ThermalGraph::HeatEdgeView edge = machine.heatEdge(i);
            fnv.str(edge.a);
            fnv.str(edge.b);
        }
        fnv.u64(machine.airEdgeCount());
        for (size_t i = 0; i < machine.airEdgeCount(); ++i) {
            core::ThermalGraph::AirEdgeView edge = machine.airEdge(i);
            fnv.str(edge.from);
            fnv.str(edge.to);
        }
        fnv.u64(machine.poweredNodeIds().size());
        for (core::NodeId id : machine.poweredNodeIds())
            fnv.u64(id);
    }
    fnv.u64(solver.hasRoom() ? 1 : 0);
    if (solver.hasRoom()) {
        const core::RoomModel &room = solver.room();
        for (size_t v = 0; v < room.nodeCount(); ++v)
            fnv.str(room.nodeName(v));
        fnv.u64(room.edgeCount());
        for (size_t i = 0; i < room.edgeCount(); ++i) {
            core::RoomModel::EdgeView edge = room.edge(i);
            fnv.str(edge.from);
            fnv.str(edge.to);
        }
    }
    return fnv.value();
}

namespace {

/** Element @p n of @p items, appended when @p items is that short:
 *  the in-place capture overwrites what the last one left. */
template <typename T>
T &
slot(std::vector<T> &items, size_t n)
{
    if (n == items.size())
        items.emplace_back();
    return items[n];
}

void
captureMachine(const core::ThermalGraph &machine, MachineState &ms)
{
    ms.name = machine.name();
    size_t nodes = machine.nodeCount();
    ms.temperatures.resize(nodes);
    ms.pinned.resize(nodes);
    ms.pinValues.resize(nodes);
    for (size_t id = 0; id < nodes; ++id) {
        bool pinned = machine.isPinned(id);
        ms.temperatures[id] = machine.temperature(id);
        ms.pinned[id] = pinned ? 1 : 0;
        ms.pinValues[id] = pinned ? machine.pinnedTemperature(id) : 0.0;
    }
    const std::vector<core::NodeId> &powered = machine.poweredNodeIds();
    ms.powered.resize(powered.size());
    for (size_t i = 0; i < powered.size(); ++i) {
        MachineState::PoweredState &ps = ms.powered[i];
        ps.id = powered[i];
        ps.utilization = machine.utilization(powered[i]);
        ps.basePower = machine.basePower(powered[i]);
        ps.maxPower = machine.maxPower(powered[i]);
    }
    ms.heatKs.resize(machine.heatEdgeCount());
    for (size_t i = 0; i < ms.heatKs.size(); ++i)
        ms.heatKs[i] = machine.heatK(i);
    ms.airFractions.resize(machine.airEdgeCount());
    for (size_t i = 0; i < ms.airFractions.size(); ++i)
        ms.airFractions[i] = machine.airFraction(i);
    ms.fanCfm = machine.fanCfm();
    ms.energyConsumed = machine.energyConsumed();
}

void
captureRoom(const core::Solver &solver, RoomState &rs)
{
    const core::RoomModel &room = solver.room();
    size_t sources = 0;
    size_t overrides = 0;
    for (size_t v = 0; v < room.nodeCount(); ++v) {
        if (room.isSource(v)) {
            auto &[name, temp] = slot(rs.sources, sources++);
            name = room.nodeName(v);
            temp = room.temperature(v);
        } else if (std::optional<double> value = room.inletOverride(v)) {
            // Only a vertex named after a machine is saved.
            if (!solver.machineIndex(room.nodeName(v)))
                continue;
            auto &[name, temp] = slot(rs.inletOverrides, overrides++);
            name = room.nodeName(v);
            temp = *value;
        }
    }
    rs.sources.resize(sources);
    rs.inletOverrides.resize(overrides);
    // The file lists overrides in the solver's machine order, which a
    // room may not share. Overrides are rare, so the name lookups of
    // this sort cost nothing in a steady save.
    std::sort(rs.inletOverrides.begin(), rs.inletOverrides.end(),
              [&](const auto &a, const auto &b) {
                  return *solver.machineIndex(a.first) <
                         *solver.machineIndex(b.first);
              });

    rs.edgeFractions.resize(room.edgeCount());
    for (size_t i = 0; i < rs.edgeFractions.size(); ++i)
        rs.edgeFractions[i] = room.edgeFraction(i);
}

} // namespace

void
captureSolver(const core::Solver &solver, uint64_t topology_hash,
              Checkpoint *out)
{
    Checkpoint &checkpoint = *out;
    checkpoint.iterations = solver.iterations();
    checkpoint.iterationSeconds = solver.iterationSeconds();
    checkpoint.topologyHash = topology_hash;
    checkpoint.machines.resize(solver.machineCount());
    for (size_t m = 0; m < solver.machineCount(); ++m)
        captureMachine(solver.machine(m), checkpoint.machines[m]);
    if (solver.hasRoom()) {
        if (!checkpoint.room)
            checkpoint.room.emplace();
        captureRoom(solver, *checkpoint.room);
    } else {
        checkpoint.room.reset();
    }
}

Checkpoint
captureSolver(const core::Solver &solver)
{
    Checkpoint checkpoint;
    captureSolver(solver, topologyHash(solver), &checkpoint);
    return checkpoint;
}

namespace {

/** restoreSolver() against a known topologyHash(solver). */
bool
restoreChecked(core::Solver &solver, const Checkpoint &checkpoint,
               uint64_t live_hash, std::string *error)
{
    // Phase 1: verify every shape against the live solver before
    // touching anything, so a refused restore leaves it pristine.
    if (checkpoint.topologyHash != live_hash) {
        setError(error, "topology hash mismatch (checkpoint " +
                            std::to_string(checkpoint.topologyHash) +
                            ", config " + std::to_string(live_hash) + ")");
        return false;
    }
    if (checkpoint.iterationSeconds != solver.iterationSeconds()) {
        setError(error,
                 "iteration period mismatch (checkpoint " +
                     std::to_string(checkpoint.iterationSeconds) +
                     " s, config " +
                     std::to_string(solver.iterationSeconds()) + " s)");
        return false;
    }
    const size_t machines = solver.machineCount();
    if (checkpoint.machines.size() != machines) {
        setError(error, "machine count mismatch");
        return false;
    }
    for (size_t m = 0; m < machines; ++m) {
        const MachineState &ms = checkpoint.machines[m];
        const core::ThermalGraph &machine = std::as_const(solver).machine(m);
        if (ms.name != machine.name()) {
            setError(error, "machine name mismatch: " + ms.name);
            return false;
        }
        if (ms.temperatures.size() != machine.nodeCount() ||
            ms.pinned.size() != machine.nodeCount() ||
            ms.pinValues.size() != machine.nodeCount() ||
            ms.heatKs.size() != machine.heatEdgeCount() ||
            ms.airFractions.size() != machine.airEdgeCount() ||
            ms.powered.size() != machine.poweredNodeIds().size()) {
            setError(error, "shape mismatch for machine " + ms.name);
            return false;
        }
        for (size_t i = 0; i < ms.powered.size(); ++i) {
            if (ms.powered[i].id != machine.poweredNodeIds()[i]) {
                setError(error,
                         "powered-node mismatch for machine " + ms.name);
                return false;
            }
        }
    }
    if (checkpoint.room.has_value() != solver.hasRoom()) {
        setError(error, "room presence mismatch");
        return false;
    }
    if (checkpoint.room) {
        const core::RoomModel &room = solver.room();
        if (checkpoint.room->edgeFractions.size() != room.edgeCount()) {
            setError(error, "room edge count mismatch");
            return false;
        }
        for (const auto &[name, temp] : checkpoint.room->sources) {
            (void)temp;
            if (!room.isSource(name)) {
                setError(error, "unknown room source " + name);
                return false;
            }
        }
        for (const auto &[name, temp] : checkpoint.room->inletOverrides) {
            (void)temp;
            if (!solver.hasMachine(name) || !room.hasNode(name)) {
                setError(error, "unknown override machine " + name);
                return false;
            }
        }
    }

    // Phase 2: apply. Constants first (they rebuild the flow/substep
    // caches), pins next, temperatures last so the snapshot values win.
    for (size_t m = 0; m < machines; ++m) {
        const MachineState &ms = checkpoint.machines[m];
        core::ThermalGraph &machine = solver.machine(m);
        for (size_t i = 0; i < ms.heatKs.size(); ++i)
            machine.setHeatK(i, ms.heatKs[i]);
        for (size_t i = 0; i < ms.airFractions.size(); ++i)
            machine.setAirFraction(i, ms.airFractions[i]);
        machine.setFanCfm(ms.fanCfm);
        for (const MachineState::PoweredState &ps : ms.powered) {
            core::NodeId id = static_cast<core::NodeId>(ps.id);
            // Only re-apply a power range that fiddle actually changed:
            // setPowerRange replaces table/counter models with a linear
            // one, which must not happen on a byte-identical round trip.
            if (machine.basePower(id) != ps.basePower ||
                machine.maxPower(id) != ps.maxPower) {
                machine.setPowerRange(machine.nodeName(id), ps.basePower,
                                      ps.maxPower);
            }
            machine.setUtilization(id, ps.utilization);
        }
        for (size_t id = 0; id < machine.nodeCount(); ++id) {
            if (ms.pinned[id])
                machine.pinTemperature(id, ms.pinValues[id]);
            else
                machine.unpinTemperature(id);
        }
        machine.setTemperatures(ms.temperatures);
        machine.restoreEnergyConsumed(ms.energyConsumed);
    }
    if (checkpoint.room) {
        core::RoomModel &room = solver.room();
        for (const auto &[name, temp] : checkpoint.room->sources)
            room.setSourceTemperature(name, temp);
        for (size_t i = 0; i < checkpoint.room->edgeFractions.size(); ++i)
            room.setEdgeFraction(i, checkpoint.room->edgeFractions[i]);
        for (size_t m = 0; m < machines; ++m) {
            const std::string &name = solver.machine(m).name();
            if (room.hasNode(name))
                room.setInletOverride(name, std::nullopt);
        }
        for (const auto &[name, temp] : checkpoint.room->inletOverrides)
            room.setInletOverride(name, temp);
    }
    solver.restoreIterationCount(checkpoint.iterations);
    // Restored temperatures have no relation to any pre-restore freeze
    // decisions: wake the whole fleet and let quiescence re-converge.
    solver.wakeAllMachines();
    return true;
}

} // namespace

bool
restoreSolver(core::Solver &solver, const Checkpoint &checkpoint,
              std::string *error)
{
    return restoreChecked(solver, checkpoint, topologyHash(solver), error);
}

namespace {

/** Bytes encodeCheckpoint() writes for @p checkpoint, header included. */
size_t
encodedSize(const Checkpoint &checkpoint)
{
    constexpr size_t kU8 = 1, kU32 = 4, kU64 = 8;
    size_t size = kHeaderBytes + 4 * kU64 + kU32;
    for (const MachineState &ms : checkpoint.machines) {
        size += kU32 + ms.name.size();
        size += kU32 + ms.temperatures.size() * kU64;
        size += ms.pinned.size() + ms.pinValues.size() * kU64;
        size += kU32 + ms.powered.size() * 4 * kU64;
        size += kU32 + ms.heatKs.size() * kU64;
        size += kU32 + ms.airFractions.size() * kU64;
        size += 2 * kU64;
    }
    size += kU8;
    if (checkpoint.room) {
        const RoomState &rs = *checkpoint.room;
        size += kU32;
        for (const auto &source : rs.sources)
            size += kU32 + source.first.size() + kU64;
        size += kU32 + rs.edgeFractions.size() * kU64;
        size += kU32;
        for (const auto &entry : rs.inletOverrides)
            size += kU32 + entry.first.size() + kU64;
    }
    size += kU32;
    for (const SenderRecord &sender : checkpoint.senders)
        size += kU32 + sender.machine.size() + kU8 + 6 * kU64 + kU32;
    return size;
}

} // namespace

void
encodeCheckpoint(const Checkpoint &checkpoint, std::vector<uint8_t> *bytes)
{
    bytes->resize(encodedSize(checkpoint));
    ByteWriter out(bytes->data(), bytes->size());
    out.u32(kCheckpointMagic);
    out.u32(kCheckpointVersion);
    out.u64(bytes->size() - kHeaderBytes); // payload length
    out.u32(0); // payload CRC, patched below
    out.u32(0); // reserved

    out.u64(checkpoint.iterations);
    out.f64(checkpoint.iterationSeconds);
    out.u64(checkpoint.topologyHash);
    out.u64(checkpoint.saveCount);

    out.u32(static_cast<uint32_t>(checkpoint.machines.size()));
    for (const MachineState &ms : checkpoint.machines) {
        out.string32(ms.name);
        out.u32(static_cast<uint32_t>(ms.temperatures.size()));
        for (double t : ms.temperatures)
            out.f64(t);
        out.bytes(ms.pinned.data(), ms.pinned.size());
        for (double v : ms.pinValues)
            out.f64(v);
        out.u32(static_cast<uint32_t>(ms.powered.size()));
        for (const MachineState::PoweredState &ps : ms.powered) {
            out.u64(ps.id);
            out.f64(ps.utilization);
            out.f64(ps.basePower);
            out.f64(ps.maxPower);
        }
        out.u32(static_cast<uint32_t>(ms.heatKs.size()));
        for (double k : ms.heatKs)
            out.f64(k);
        out.u32(static_cast<uint32_t>(ms.airFractions.size()));
        for (double f : ms.airFractions)
            out.f64(f);
        out.f64(ms.fanCfm);
        out.f64(ms.energyConsumed);
    }

    out.u8(checkpoint.room ? 1 : 0);
    if (checkpoint.room) {
        const RoomState &rs = *checkpoint.room;
        out.u32(static_cast<uint32_t>(rs.sources.size()));
        for (const auto &[name, temp] : rs.sources) {
            out.string32(name);
            out.f64(temp);
        }
        out.u32(static_cast<uint32_t>(rs.edgeFractions.size()));
        for (double f : rs.edgeFractions)
            out.f64(f);
        out.u32(static_cast<uint32_t>(rs.inletOverrides.size()));
        for (const auto &[name, temp] : rs.inletOverrides) {
            out.string32(name);
            out.f64(temp);
        }
    }

    out.u32(static_cast<uint32_t>(checkpoint.senders.size()));
    for (const SenderRecord &sender : checkpoint.senders) {
        out.string32(sender.machine);
        out.u8(sender.started ? 1 : 0);
        out.u64(sender.head);
        out.u64(sender.window);
        out.u64(sender.received);
        out.u64(sender.lost);
        out.u64(sender.duplicates);
        out.u64(sender.reordered);
        out.u32(sender.lastBacklog);
    }

    if (out.offset() != bytes->size())
        MERCURY_PANIC("encodeCheckpoint: wrote ", out.offset(),
                      " bytes, sized ", bytes->size());
    out.patchU32(16, crc32c(bytes->data() + kHeaderBytes,
                            bytes->size() - kHeaderBytes));
}

std::vector<uint8_t>
encodeCheckpoint(const Checkpoint &checkpoint)
{
    std::vector<uint8_t> bytes;
    encodeCheckpoint(checkpoint, &bytes);
    return bytes;
}

bool
decodeCheckpoint(const uint8_t *data, size_t size, Checkpoint *out,
                 std::string *error)
{
    // Every check below may run after a failed read (which yields
    // 0): fail() keeps the first failure, so a later one is a no-op.
    ByteReader in(data, size);
    uint32_t magic = in.u32();
    uint32_t version = in.u32();
    uint64_t payload_length = in.u64();
    uint32_t crc = in.u32();
    in.u32(); // reserved
    if (!in.ok()) {
        setError(error, "truncated header (" + std::to_string(size) +
                            " bytes)");
        return false;
    }
    if (magic != kCheckpointMagic) {
        setError(error, "bad magic");
        return false;
    }
    if (version != kCheckpointVersion) {
        setError(error, "unsupported version " + std::to_string(version));
        return false;
    }
    if (payload_length != size - kHeaderBytes) {
        setError(error,
                 "length mismatch (header says " +
                     std::to_string(payload_length) + ", file carries " +
                     std::to_string(size - kHeaderBytes) + ")");
        return false;
    }
    if (crc32c(data + kHeaderBytes, payload_length) != crc) {
        setError(error, "CRC mismatch");
        return false;
    }

    // The payload, read on from the header: failures name file offsets.
    Checkpoint cp;
    cp.iterations = in.u64();
    cp.iterationSeconds = in.f64();
    cp.topologyHash = in.u64();
    cp.saveCount = in.u64();
    if (cp.iterationSeconds <= 0.0)
        in.fail("non-positive iteration period");

    uint32_t machine_count = in.count(kMaxMachines, "machine");
    for (uint32_t m = 0; in.ok() && m < machine_count; ++m) {
        MachineState ms;
        ms.name = in.string32(kMaxStringBytes);
        uint32_t nodes = in.count(kMaxNodes, "node");
        ms.temperatures.resize(nodes);
        for (uint32_t i = 0; in.ok() && i < nodes; ++i)
            ms.temperatures[i] = in.f64();
        ms.pinned.resize(nodes);
        for (uint32_t i = 0; in.ok() && i < nodes; ++i) {
            ms.pinned[i] = in.u8();
            if (ms.pinned[i] > 1)
                in.fail("pinned flag not 0/1");
        }
        ms.pinValues.resize(nodes);
        for (uint32_t i = 0; in.ok() && i < nodes; ++i)
            ms.pinValues[i] = in.f64();
        uint32_t powered = in.count(kMaxNodes, "powered-node");
        for (uint32_t i = 0; in.ok() && i < powered; ++i) {
            MachineState::PoweredState ps;
            ps.id = in.u64();
            ps.utilization = in.f64();
            ps.basePower = in.f64();
            ps.maxPower = in.f64();
            if (ps.utilization < 0.0 || ps.utilization > 1.0)
                in.fail("utilization outside [0, 1]");
            if (ps.id >= nodes)
                in.fail("powered id out of range");
            ms.powered.push_back(ps);
        }
        uint32_t heat_edges = in.count(kMaxEdges, "heat-edge");
        for (uint32_t i = 0; in.ok() && i < heat_edges; ++i) {
            double k = in.f64();
            if (k <= 0.0)
                in.fail("non-positive heat k");
            ms.heatKs.push_back(k);
        }
        uint32_t air_edges = in.count(kMaxEdges, "air-edge");
        for (uint32_t i = 0; in.ok() && i < air_edges; ++i) {
            double f = in.f64();
            if (f < 0.0 || f > 1.0)
                in.fail("air fraction outside [0, 1]");
            ms.airFractions.push_back(f);
        }
        ms.fanCfm = in.f64();
        if (ms.fanCfm < 0.0)
            in.fail("negative fan flow");
        ms.energyConsumed = in.f64();
        cp.machines.push_back(std::move(ms));
    }

    uint8_t has_room = in.u8();
    if (has_room > 1)
        in.fail("room flag not 0/1");
    if (has_room) {
        RoomState rs;
        uint32_t sources = in.count(kMaxNodes, "room-source");
        for (uint32_t i = 0; in.ok() && i < sources; ++i) {
            std::string name = in.string32(kMaxStringBytes);
            double temp = in.f64();
            rs.sources.emplace_back(std::move(name), temp);
        }
        uint32_t edges = in.count(kMaxEdges, "room-edge");
        for (uint32_t i = 0; in.ok() && i < edges; ++i) {
            double f = in.f64();
            if (f < 0.0 || f > 1.0)
                in.fail("room fraction outside [0, 1]");
            rs.edgeFractions.push_back(f);
        }
        uint32_t overrides = in.count(kMaxNodes, "inlet-override");
        for (uint32_t i = 0; in.ok() && i < overrides; ++i) {
            std::string name = in.string32(kMaxStringBytes);
            double temp = in.f64();
            rs.inletOverrides.emplace_back(std::move(name), temp);
        }
        cp.room = std::move(rs);
    }

    uint32_t sender_count = in.count(kMaxSenders, "sender");
    for (uint32_t i = 0; in.ok() && i < sender_count; ++i) {
        SenderRecord sender;
        sender.machine = in.string32(kMaxStringBytes);
        uint8_t started = in.u8();
        if (started > 1)
            in.fail("sender started flag not 0/1");
        sender.started = started != 0;
        sender.head = in.u64();
        sender.window = in.u64();
        sender.received = in.u64();
        sender.lost = in.u64();
        sender.duplicates = in.u64();
        sender.reordered = in.u64();
        sender.lastBacklog = in.u32();
        cp.senders.push_back(std::move(sender));
    }

    if (!in.ok()) {
        setError(error, in.error());
        return false;
    }
    if (in.remaining() != 0) {
        setError(error, std::to_string(in.remaining()) +
                            " trailing payload bytes");
        return false;
    }
    *out = std::move(cp);
    return true;
}

bool
saveCheckpointFile(const std::string &path, const Checkpoint &checkpoint,
                   std::string *error)
{
    return writeCheckpointBytes(path, encodeCheckpoint(checkpoint), error);
}

bool
loadCheckpointFile(const std::string &path, Checkpoint *out,
                   std::string *error)
{
    std::vector<uint8_t> bytes;
    return readFileBytes(path, kMaxFileBytes, &bytes, error) &&
           decodeCheckpoint(bytes.data(), bytes.size(), out, error);
}

CheckpointManager::CheckpointManager(core::Solver &solver, Config config)
    : solver_(solver), config_(std::move(config)),
      topologyHash_(state::topologyHash(solver))
{
}

bool
CheckpointManager::restoreAtBoot()
{
    if (config_.path.empty())
        return false;
    Checkpoint checkpoint;
    std::string why;
    if (!loadCheckpointFile(config_.path, &checkpoint, &why)) {
        struct stat st;
        if (::stat(config_.path.c_str(), &st) == 0)
            warn("checkpoint ", config_.path, " rejected (", why,
                 "); cold start");
        else
            inform("no checkpoint at ", config_.path, "; cold start");
        return false;
    }
    if (!restoreChecked(solver_, checkpoint, topologyHash_, &why)) {
        warn("checkpoint ", config_.path, " does not match this config (",
             why, "); cold start");
        return false;
    }
    if (senderImporter_)
        senderImporter_(checkpoint.senders);
    restored_ = true;
    lastRestoreIteration_ = checkpoint.iterations;
    saveCount_ = checkpoint.saveCount;
    inform("restored checkpoint ", config_.path, " at iteration ",
           checkpoint.iterations, " (save #", checkpoint.saveCount, ")");
    return true;
}

bool
CheckpointManager::saveNow(std::string *error)
{
    if (config_.path.empty()) {
        setError(error, "no checkpoint path configured");
        return false;
    }
    captureSolver(solver_, topologyHash_, &checkpoint_);
    checkpoint_.saveCount = saveCount_ + 1;
    if (senderExporter_)
        senderExporter_(checkpoint_.senders);
    else
        checkpoint_.senders.clear();
    encodeCheckpoint(checkpoint_, &bytes_);
    std::string why;
    if (!writeCheckpointBytes(config_.path, bytes_, &why)) {
        ++failedSaves_;
        warn("checkpoint save to ", config_.path, " failed: ", why);
        setError(error, why);
        return false;
    }
    saveCount_ = checkpoint_.saveCount;
    everSaved_ = true;
    lastSaveNanos_ = nowNanos();
    return true;
}

void
CheckpointManager::maybeSave()
{
    if (config_.path.empty() || config_.periodSeconds <= 0.0)
        return;
    uint64_t now = nowNanos();
    if (nextSaveNanos_ == 0) {
        nextSaveNanos_ = now + static_cast<uint64_t>(
                                   config_.periodSeconds * 1e9);
        return;
    }
    if (now < nextSaveNanos_)
        return;
    saveNow();
    nextSaveNanos_ =
        now + static_cast<uint64_t>(config_.periodSeconds * 1e9);
}

double
CheckpointManager::lastSaveAgeSeconds() const
{
    if (!everSaved_)
        return -1.0;
    return static_cast<double>(nowNanos() - lastSaveNanos_) / 1e9;
}

} // namespace state
} // namespace mercury
