#include "state/checkpoint.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "core/solver.hh"
#include "util/crc32c.hh"
#include "util/logging.hh"

namespace mercury {
namespace state {

namespace {

/** Hard ceilings a well-formed file can never exceed; anything above
 *  is garbage regardless of what the CRC says. */
constexpr uint64_t kMaxMachines = 1u << 20;
constexpr uint64_t kMaxNodes = 1u << 22;
constexpr uint64_t kMaxEdges = 1u << 22;
constexpr uint64_t kMaxSenders = 1u << 20;
constexpr uint64_t kMaxStringBytes = 4096;
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

int g_saveFaultStage = 0;

/** Little-endian append-only serializer. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { out_.push_back(v); }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out_.insert(out_.end(), s.begin(), s.end());
    }

    std::vector<uint8_t> take() { return std::move(out_); }
    size_t size() const { return out_.size(); }

  private:
    std::vector<uint8_t> out_;
};

/**
 * Bounds-checked little-endian parser. Every accessor returns false
 * once the buffer is exhausted or a value fails validation; the first
 * failure latches with a diagnostic.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    size_t remaining() const { return size_ - pos_; }

    bool
    fail(const std::string &message)
    {
        if (ok_) {
            ok_ = false;
            error_ = message + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    bool
    u8(uint8_t *out)
    {
        if (!need(1))
            return false;
        *out = data_[pos_++];
        return true;
    }

    bool
    u32(uint32_t *out)
    {
        if (!need(4))
            return false;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        *out = v;
        return true;
    }

    bool
    u64(uint64_t *out)
    {
        if (!need(8))
            return false;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        *out = v;
        return true;
    }

    /** A double that must be finite (no NaN/Inf sneaks past the CRC). */
    bool
    f64(double *out)
    {
        uint64_t bits;
        if (!u64(&bits))
            return false;
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v))
            return fail("non-finite double");
        *out = v;
        return true;
    }

    bool
    str(std::string *out)
    {
        uint32_t length;
        if (!u32(&length))
            return false;
        if (length > kMaxStringBytes)
            return fail("string length " + std::to_string(length));
        if (!need(length))
            return false;
        out->assign(reinterpret_cast<const char *>(data_ + pos_), length);
        pos_ += length;
        return true;
    }

    /** A u32 element count with a sanity ceiling. */
    bool
    count(uint32_t *out, uint64_t ceiling, const char *what)
    {
        if (!u32(out))
            return false;
        if (*out > ceiling)
            return fail(std::string("absurd ") + what + " count " +
                        std::to_string(*out));
        return true;
    }

  private:
    bool
    need(size_t bytes)
    {
        if (size_ - pos_ < bytes)
            return fail("truncated (need " + std::to_string(bytes) +
                        " bytes, have " + std::to_string(size_ - pos_) +
                        ")");
        return true;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

/** FNV-1a accumulator for the topology hash. */
struct Fnv
{
    uint64_t hash = 1469598103934665603ull;

    void
    bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash ^= p[i];
            hash *= 1099511628211ull;
        }
    }

    void
    str(const std::string &s)
    {
        uint64_t length = s.size();
        bytes(&length, sizeof(length));
        bytes(s.data(), s.size());
    }

    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
};

void
setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

} // namespace

uint64_t
topologyHash(const core::Solver &solver)
{
    Fnv fnv;
    fnv.str("mercury-topology-v1");
    std::vector<std::string> names = solver.machineNames();
    fnv.u64(names.size());
    for (const std::string &name : names) {
        const core::ThermalGraph &machine = solver.machine(name);
        fnv.str(name);
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
        for (const std::string &name : room.nodeNames())
            fnv.str(name);
        fnv.u64(room.edgeCount());
        for (size_t i = 0; i < room.edgeCount(); ++i) {
            core::RoomModel::EdgeView edge = room.edge(i);
            fnv.str(edge.from);
            fnv.str(edge.to);
        }
    }
    return fnv.hash;
}

Checkpoint
captureSolver(const core::Solver &solver)
{
    Checkpoint checkpoint;
    checkpoint.iterations = solver.iterations();
    checkpoint.iterationSeconds = solver.iterationSeconds();
    checkpoint.topologyHash = topologyHash(solver);

    for (const std::string &name : solver.machineNames()) {
        const core::ThermalGraph &machine = solver.machine(name);
        MachineState ms;
        ms.name = name;
        ms.temperatures = machine.temperatures();
        ms.pinned.reserve(machine.nodeCount());
        ms.pinValues.reserve(machine.nodeCount());
        for (size_t id = 0; id < machine.nodeCount(); ++id) {
            bool pinned = machine.isPinned(id);
            ms.pinned.push_back(pinned ? 1 : 0);
            ms.pinValues.push_back(pinned ? machine.pinnedTemperature(id)
                                          : 0.0);
        }
        for (core::NodeId id : machine.poweredNodeIds()) {
            MachineState::PoweredState ps;
            ps.id = id;
            ps.utilization = machine.utilization(id);
            ps.basePower = machine.basePower(id);
            ps.maxPower = machine.maxPower(id);
            ms.powered.push_back(ps);
        }
        for (size_t i = 0; i < machine.heatEdgeCount(); ++i)
            ms.heatKs.push_back(machine.heatEdge(i).k);
        for (size_t i = 0; i < machine.airEdgeCount(); ++i)
            ms.airFractions.push_back(machine.airEdge(i).fraction);
        ms.fanCfm = machine.fanCfm();
        ms.energyConsumed = machine.energyConsumed();
        checkpoint.machines.push_back(std::move(ms));
    }

    if (solver.hasRoom()) {
        const core::RoomModel &room = solver.room();
        RoomState rs;
        for (const std::string &name : room.nodeNames()) {
            if (room.isSource(name))
                rs.sources.emplace_back(name, room.temperature(name));
        }
        for (size_t i = 0; i < room.edgeCount(); ++i)
            rs.edgeFractions.push_back(room.edge(i).fraction);
        for (const std::string &name : solver.machineNames()) {
            if (!room.hasNode(name))
                continue;
            std::optional<double> override = room.inletOverride(name);
            if (override)
                rs.inletOverrides.emplace_back(name, *override);
        }
        checkpoint.room = std::move(rs);
    }
    return checkpoint;
}

bool
restoreSolver(core::Solver &solver, const Checkpoint &checkpoint,
              std::string *error)
{
    // Phase 1: verify every shape against the live solver before
    // touching anything, so a refused restore leaves it pristine.
    uint64_t live_hash = topologyHash(solver);
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
    std::vector<std::string> names = solver.machineNames();
    if (checkpoint.machines.size() != names.size()) {
        setError(error, "machine count mismatch");
        return false;
    }
    for (size_t m = 0; m < names.size(); ++m) {
        const MachineState &ms = checkpoint.machines[m];
        if (ms.name != names[m]) {
            setError(error, "machine name mismatch: " + ms.name);
            return false;
        }
        const core::ThermalGraph &machine = solver.machine(names[m]);
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
    for (size_t m = 0; m < names.size(); ++m) {
        const MachineState &ms = checkpoint.machines[m];
        core::ThermalGraph &machine = solver.machine(names[m]);
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
        for (const std::string &name : names) {
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

std::vector<uint8_t>
encodeCheckpoint(const Checkpoint &checkpoint)
{
    ByteWriter payload;
    payload.u64(checkpoint.iterations);
    payload.f64(checkpoint.iterationSeconds);
    payload.u64(checkpoint.topologyHash);
    payload.u64(checkpoint.saveCount);

    payload.u32(static_cast<uint32_t>(checkpoint.machines.size()));
    for (const MachineState &ms : checkpoint.machines) {
        payload.str(ms.name);
        payload.u32(static_cast<uint32_t>(ms.temperatures.size()));
        for (double t : ms.temperatures)
            payload.f64(t);
        for (uint8_t p : ms.pinned)
            payload.u8(p);
        for (double v : ms.pinValues)
            payload.f64(v);
        payload.u32(static_cast<uint32_t>(ms.powered.size()));
        for (const MachineState::PoweredState &ps : ms.powered) {
            payload.u64(ps.id);
            payload.f64(ps.utilization);
            payload.f64(ps.basePower);
            payload.f64(ps.maxPower);
        }
        payload.u32(static_cast<uint32_t>(ms.heatKs.size()));
        for (double k : ms.heatKs)
            payload.f64(k);
        payload.u32(static_cast<uint32_t>(ms.airFractions.size()));
        for (double f : ms.airFractions)
            payload.f64(f);
        payload.f64(ms.fanCfm);
        payload.f64(ms.energyConsumed);
    }

    payload.u8(checkpoint.room ? 1 : 0);
    if (checkpoint.room) {
        const RoomState &rs = *checkpoint.room;
        payload.u32(static_cast<uint32_t>(rs.sources.size()));
        for (const auto &[name, temp] : rs.sources) {
            payload.str(name);
            payload.f64(temp);
        }
        payload.u32(static_cast<uint32_t>(rs.edgeFractions.size()));
        for (double f : rs.edgeFractions)
            payload.f64(f);
        payload.u32(static_cast<uint32_t>(rs.inletOverrides.size()));
        for (const auto &[name, temp] : rs.inletOverrides) {
            payload.str(name);
            payload.f64(temp);
        }
    }

    payload.u32(static_cast<uint32_t>(checkpoint.senders.size()));
    for (const SenderRecord &sender : checkpoint.senders) {
        payload.str(sender.machine);
        payload.u8(sender.started ? 1 : 0);
        payload.u64(sender.head);
        payload.u64(sender.window);
        payload.u64(sender.received);
        payload.u64(sender.lost);
        payload.u64(sender.duplicates);
        payload.u64(sender.reordered);
        payload.u32(sender.lastBacklog);
    }

    std::vector<uint8_t> body = payload.take();
    ByteWriter file;
    file.u32(kCheckpointMagic);
    file.u32(kCheckpointVersion);
    file.u64(body.size());
    file.u32(crc32c(body.data(), body.size()));
    file.u32(0); // reserved
    std::vector<uint8_t> out = file.take();
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

bool
decodeCheckpoint(const uint8_t *data, size_t size, Checkpoint *out,
                 std::string *error)
{
    ByteReader header(data, size);
    uint32_t magic = 0, version = 0, crc = 0, reserved = 0;
    uint64_t payload_length = 0;
    if (!header.u32(&magic) || !header.u32(&version) ||
        !header.u64(&payload_length) || !header.u32(&crc) ||
        !header.u32(&reserved)) {
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
    const uint8_t *body = data + kHeaderBytes;
    if (crc32c(body, payload_length) != crc) {
        setError(error, "CRC mismatch");
        return false;
    }

    ByteReader in(body, payload_length);
    Checkpoint cp;
    in.u64(&cp.iterations);
    in.f64(&cp.iterationSeconds);
    in.u64(&cp.topologyHash);
    in.u64(&cp.saveCount);
    if (in.ok() && cp.iterationSeconds <= 0.0)
        in.fail("non-positive iteration period");

    uint32_t machine_count = 0;
    in.count(&machine_count, kMaxMachines, "machine");
    for (uint32_t m = 0; in.ok() && m < machine_count; ++m) {
        MachineState ms;
        in.str(&ms.name);
        uint32_t nodes = 0;
        in.count(&nodes, kMaxNodes, "node");
        ms.temperatures.resize(in.ok() ? nodes : 0);
        for (uint32_t i = 0; in.ok() && i < nodes; ++i)
            in.f64(&ms.temperatures[i]);
        ms.pinned.resize(in.ok() ? nodes : 0);
        for (uint32_t i = 0; in.ok() && i < nodes; ++i) {
            in.u8(&ms.pinned[i]);
            if (in.ok() && ms.pinned[i] > 1)
                in.fail("pinned flag not 0/1");
        }
        ms.pinValues.resize(in.ok() ? nodes : 0);
        for (uint32_t i = 0; in.ok() && i < nodes; ++i)
            in.f64(&ms.pinValues[i]);
        uint32_t powered = 0;
        in.count(&powered, kMaxNodes, "powered-node");
        for (uint32_t i = 0; in.ok() && i < powered; ++i) {
            MachineState::PoweredState ps;
            in.u64(&ps.id);
            in.f64(&ps.utilization);
            in.f64(&ps.basePower);
            in.f64(&ps.maxPower);
            if (in.ok() &&
                (ps.utilization < 0.0 || ps.utilization > 1.0))
                in.fail("utilization outside [0, 1]");
            if (in.ok() && ps.id >= nodes)
                in.fail("powered id out of range");
            ms.powered.push_back(ps);
        }
        uint32_t heat_edges = 0;
        in.count(&heat_edges, kMaxEdges, "heat-edge");
        for (uint32_t i = 0; in.ok() && i < heat_edges; ++i) {
            double k = 0.0;
            in.f64(&k);
            if (in.ok() && k <= 0.0)
                in.fail("non-positive heat k");
            ms.heatKs.push_back(k);
        }
        uint32_t air_edges = 0;
        in.count(&air_edges, kMaxEdges, "air-edge");
        for (uint32_t i = 0; in.ok() && i < air_edges; ++i) {
            double f = 0.0;
            in.f64(&f);
            if (in.ok() && (f < 0.0 || f > 1.0))
                in.fail("air fraction outside [0, 1]");
            ms.airFractions.push_back(f);
        }
        in.f64(&ms.fanCfm);
        if (in.ok() && ms.fanCfm < 0.0)
            in.fail("negative fan flow");
        in.f64(&ms.energyConsumed);
        cp.machines.push_back(std::move(ms));
    }

    uint8_t has_room = 0;
    in.u8(&has_room);
    if (in.ok() && has_room > 1)
        in.fail("room flag not 0/1");
    if (in.ok() && has_room) {
        RoomState rs;
        uint32_t sources = 0;
        in.count(&sources, kMaxNodes, "room-source");
        for (uint32_t i = 0; in.ok() && i < sources; ++i) {
            std::string name;
            double temp = 0.0;
            in.str(&name);
            in.f64(&temp);
            rs.sources.emplace_back(std::move(name), temp);
        }
        uint32_t edges = 0;
        in.count(&edges, kMaxEdges, "room-edge");
        for (uint32_t i = 0; in.ok() && i < edges; ++i) {
            double f = 0.0;
            in.f64(&f);
            if (in.ok() && (f < 0.0 || f > 1.0))
                in.fail("room fraction outside [0, 1]");
            rs.edgeFractions.push_back(f);
        }
        uint32_t overrides = 0;
        in.count(&overrides, kMaxNodes, "inlet-override");
        for (uint32_t i = 0; in.ok() && i < overrides; ++i) {
            std::string name;
            double temp = 0.0;
            in.str(&name);
            in.f64(&temp);
            rs.inletOverrides.emplace_back(std::move(name), temp);
        }
        cp.room = std::move(rs);
    }

    uint32_t sender_count = 0;
    in.count(&sender_count, kMaxSenders, "sender");
    for (uint32_t i = 0; in.ok() && i < sender_count; ++i) {
        SenderRecord sender;
        uint8_t started = 0;
        in.str(&sender.machine);
        in.u8(&started);
        if (in.ok() && started > 1)
            in.fail("sender started flag not 0/1");
        sender.started = started != 0;
        in.u64(&sender.head);
        in.u64(&sender.window);
        in.u64(&sender.received);
        in.u64(&sender.lost);
        in.u64(&sender.duplicates);
        in.u64(&sender.reordered);
        in.u32(&sender.lastBacklog);
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

void
setSaveFaultStageForTest(int stage)
{
    g_saveFaultStage = stage;
}

bool
saveCheckpointFile(const std::string &path, const Checkpoint &checkpoint,
                   std::string *error)
{
    std::vector<uint8_t> bytes = encodeCheckpoint(checkpoint);
    std::string tmp = path + ".tmp";

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setError(error, "open " + tmp + ": " + std::strerror(errno));
        return false;
    }
    if (g_saveFaultStage == 1) {
        ::close(fd);
        setError(error, "fault injected: crash after create");
        return false;
    }
    size_t to_write =
        g_saveFaultStage == 2 ? bytes.size() / 2 : bytes.size();
    size_t written = 0;
    while (written < to_write) {
        ssize_t n =
            ::write(fd, bytes.data() + written, to_write - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error, "write " + tmp + ": " + std::strerror(errno));
            ::close(fd);
            return false;
        }
        written += static_cast<size_t>(n);
    }
    if (g_saveFaultStage == 2) {
        ::close(fd);
        setError(error, "fault injected: crash mid-write");
        return false;
    }
    if (::fsync(fd) != 0) {
        setError(error, "fsync " + tmp + ": " + std::strerror(errno));
        ::close(fd);
        return false;
    }
    if (::close(fd) != 0) {
        setError(error, "close " + tmp + ": " + std::strerror(errno));
        return false;
    }
    if (g_saveFaultStage == 3) {
        setError(error, "fault injected: crash before rename");
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, "rename " + tmp + ": " + std::strerror(errno));
        return false;
    }
    // Persist the rename itself: fsync the containing directory.
    size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : path.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

bool
loadCheckpointFile(const std::string &path, Checkpoint *out,
                   std::string *error)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(error, "open " + path + ": " + std::strerror(errno));
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        setError(error, "stat " + path + ": " + std::strerror(errno));
        ::close(fd);
        return false;
    }
    if (st.st_size < 0 ||
        static_cast<size_t>(st.st_size) > kMaxFileBytes) {
        setError(error, "implausible file size " +
                            std::to_string(st.st_size));
        ::close(fd);
        return false;
    }
    std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < bytes.size()) {
        ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error, "read " + path + ": " + std::strerror(errno));
            ::close(fd);
            return false;
        }
        if (n == 0)
            break; // shrank underneath us; decode will reject
        got += static_cast<size_t>(n);
    }
    ::close(fd);
    return decodeCheckpoint(bytes.data(), got, out, error);
}

CheckpointManager::CheckpointManager(core::Solver &solver, Config config)
    : solver_(solver), config_(std::move(config))
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
    if (!restoreSolver(solver_, checkpoint, &why)) {
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
    Checkpoint checkpoint = captureSolver(solver_);
    checkpoint.saveCount = saveCount_ + 1;
    if (senderExporter_)
        checkpoint.senders = senderExporter_();
    std::string why;
    if (!saveCheckpointFile(config_.path, checkpoint, &why)) {
        ++failedSaves_;
        warn("checkpoint save to ", config_.path, " failed: ", why);
        setError(error, why);
        return false;
    }
    saveCount_ = checkpoint.saveCount;
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
