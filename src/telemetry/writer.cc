#include "telemetry/writer.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "core/solver.hh"
#include "telemetry/seqlock.hh"
#include "util/logging.hh"

namespace mercury {
namespace telemetry {

namespace {

void
copyName(char (&field)[kNameWidth], const std::string &value)
{
    std::memset(field, 0, kNameWidth);
    std::memcpy(field, value.data(), value.size());
}

} // namespace

Writer::Writer(std::string shm_name, core::Solver &solver,
               double period_seconds)
    : name_(normalizeShmName(shm_name)), solver_(solver)
{
    // Build the directory. Names that do not fit the fixed-width wire
    // fields are skipped (those components stay reachable over UDP).
    std::vector<SlotKey> slots;
    std::vector<AliasEntry> aliases;
    uint32_t machine_count = 0;
    for (const std::string &machine_name : solver.machineNames()) {
        if (machine_name.size() >= kNameWidth) {
            warn("telemetry: machine name '", machine_name,
                 "' too long for the snapshot table; skipping");
            continue;
        }
        ++machine_count;
        const core::ThermalGraph &graph = solver.machine(machine_name);
        uint32_t first_slot = static_cast<uint32_t>(slots.size());
        for (core::NodeId id = 0; id < graph.nodeCount(); ++id) {
            const std::string &node_name = graph.nodeName(id);
            if (node_name.size() >= kNameWidth)
                continue;
            SlotKey key;
            copyName(key.machine, machine_name);
            copyName(key.node, node_name);
            slots.push_back(key);
            sources_.push_back({&graph, static_cast<uint32_t>(id)});
        }
        Group group;
        group.graph = &graph;
        group.firstSlot = first_slot;
        group.count = static_cast<uint32_t>(slots.size()) - first_slot;
        groups_.push_back(group);
    }
    for (const auto &[alias, node_name] : solver.aliases()) {
        if (alias.size() >= kNameWidth || node_name.size() >= kNameWidth)
            continue;
        AliasEntry entry;
        copyName(entry.alias, alias);
        copyName(entry.node, node_name);
        aliases.push_back(entry);
    }

    layout_.slotCount = static_cast<uint32_t>(slots.size());
    layout_.aliasCount = static_cast<uint32_t>(aliases.size());
    size_t total = layout_.totalBytes();

    int fd = ::shm_open(name_.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd < 0) {
        warn("telemetry: shm_open('", name_, "') failed: ",
             std::strerror(errno), "; telemetry plane disabled");
        return;
    }
    if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
        warn("telemetry: ftruncate('", name_, "', ", total,
             ") failed: ", std::strerror(errno),
             "; telemetry plane disabled");
        ::close(fd);
        ::shm_unlink(name_.c_str());
        return;
    }
    void *base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                        MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
        warn("telemetry: mmap('", name_, "') failed: ",
             std::strerror(errno), "; telemetry plane disabled");
        ::shm_unlink(name_.c_str());
        return;
    }

    base_ = base;
    mappedBytes_ = total;
    auto *bytes = static_cast<uint8_t *>(base_);
    header_ = reinterpret_cast<Header *>(bytes);
    auto *slot_table =
        reinterpret_cast<SlotKey *>(bytes + layout_.slotsOffset());
    auto *alias_table =
        reinterpret_cast<AliasEntry *>(bytes + layout_.aliasOffset());
    temperatures_ =
        reinterpret_cast<double *>(bytes + layout_.temperaturesOffset());
    utilizations_ =
        reinterpret_cast<double *>(bytes + layout_.utilizationsOffset());

    // A kill -9 leaves the previous segment behind and shm_open above
    // reuses it, so the old header is still here: read its boot
    // counter before stomping anything. Garbage (non-Mercury segment)
    // only costs us a meaningless starting count.
    bootGeneration_ = header_->bootGeneration + 1;

    // A previous segment generation may still be mapped by readers:
    // stomp the magic and hold the seqlock odd while rebuilding, so no
    // reader trusts a half-initialized table.
    std::atomic_ref<uint64_t>(header_->sequence)
        .store(1, std::memory_order_relaxed);
    std::atomic_ref<uint32_t>(header_->magic)
        .store(0, std::memory_order_release);

    if (!slots.empty())
        std::memcpy(slot_table, slots.data(),
                    sizeof(SlotKey) * slots.size());
    if (!aliases.empty())
        std::memcpy(alias_table, aliases.data(),
                    sizeof(AliasEntry) * aliases.size());
    // Mix the boot generation into the published hash: an identical
    // topology after a crash-restart still reads as "different table",
    // invalidating every pre-crash cached slot handle.
    header_->layoutHash = layoutHash(slot_table, layout_.slotCount,
                                     alias_table, layout_.aliasCount) ^
                          (static_cast<uint64_t>(bootGeneration_) *
                           0x9e3779b97f4a7c15ull);
    header_->slotCount = layout_.slotCount;
    header_->aliasCount = layout_.aliasCount;
    header_->machineCount = machine_count;
    header_->bootGeneration = bootGeneration_;
    double period = period_seconds > 0.0 ? period_seconds : 1.0;
    header_->periodNanos = static_cast<uint64_t>(period * 1e9);
    header_->version = kShmVersion;

    publish(); // first snapshot; leaves the seqlock even

    std::atomic_ref<uint32_t>(header_->magic)
        .store(kShmMagic, std::memory_order_release);
}

Writer::~Writer()
{
    if (hookInstalled_)
        solver_.setIterationHook(nullptr);
    if (base_) {
        // Readers may stay mapped to this (about-to-be-unlinked)
        // segment; killing the magic makes them fall back to UDP on
        // their next read instead of waiting out the staleness window.
        std::atomic_ref<uint32_t>(header_->magic)
            .store(0, std::memory_order_release);
        ::shm_unlink(name_.c_str());
        unmap();
    }
}

void
Writer::unmap()
{
    ::munmap(base_, mappedBytes_);
    base_ = nullptr;
    header_ = nullptr;
    temperatures_ = nullptr;
    utilizations_ = nullptr;
}

void
Writer::publish()
{
    if (!header_)
        return;
    std::lock_guard<std::mutex> guard(publishMutex_);
    uint64_t odd = seqlockWriteBegin(header_->sequence);
    storePayload(header_->iteration, solver_.iterations());
    storePayload(header_->emulatedSeconds, solver_.emulatedSeconds());
    // Per-machine change detection: a machine whose stateVersion is
    // unchanged since the last publish (frozen by the quiescence
    // engine, or simply untouched between publishes) already has its
    // exact values in the segment — skip its slot range. Readers see
    // no difference: the payload is identical either way.
    for (Group &group : groups_) {
        uint64_t stamp = group.graph->stateVersion();
        if (group.primed && stamp == group.lastStamp)
            continue;
        for (uint32_t k = 0; k < group.count; ++k) {
            size_t i = group.firstSlot + k;
            const Source &source = sources_[i];
            storePayload(temperatures_[i],
                         source.graph->temperature(source.node));
            storePayload(utilizations_[i],
                         source.graph->utilization(source.node));
        }
        group.lastStamp = stamp;
        group.primed = true;
    }
    seqlockWriteEnd(header_->sequence, odd);
    std::atomic_ref<uint64_t>(header_->heartbeatNanos)
        .store(monotonicNanos(), std::memory_order_release);
}

void
Writer::refreshHeartbeat()
{
    if (!header_)
        return;
    std::atomic_ref<uint64_t>(header_->heartbeatNanos)
        .store(monotonicNanos(), std::memory_order_release);
}

void
Writer::installHook()
{
    if (!valid() || hookInstalled_)
        return;
    solver_.setIterationHook([this] { publish(); });
    hookInstalled_ = true;
}

} // namespace telemetry
} // namespace mercury
