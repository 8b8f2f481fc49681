#include "telemetry/reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "telemetry/seqlock.hh"

namespace mercury {
namespace telemetry {

namespace {

/** Throttle between reconnect attempts while the segment is down. */
constexpr uint64_t kReconnectNanos = 200'000'000ULL; // 200 ms

/** A publish is a few microseconds; a handful of retries is plenty. */
constexpr int kMaxSeqlockRetries = 16;

std::function<uint64_t()> testClock; // tests only; see header

std::string
fixedToString(const char (&field)[kNameWidth])
{
    size_t len = 0;
    while (len < kNameWidth && field[len] != '\0')
        ++len;
    return std::string(field, len);
}

} // namespace

void
Reader::setClockForTest(std::function<uint64_t()> clock)
{
    testClock = std::move(clock);
}

uint64_t
Reader::nowNanos() const
{
    return testClock ? testClock() : monotonicNanos();
}

Reader::Reader(std::string shm_name)
    : name_(normalizeShmName(shm_name))
{
}

Reader::~Reader()
{
    std::lock_guard<std::mutex> guard(mutex_);
    unmapLocked();
}

void
Reader::unmapLocked()
{
    if (base_)
        ::munmap(base_, mappedBytes_);
    base_ = nullptr;
    mappedBytes_ = 0;
    header_ = nullptr;
    temperatures_ = nullptr;
    utilizations_ = nullptr;
    slotIndex_.clear();
    machineSet_.clear();
    aliasMap_.clear();
}

bool
Reader::usableLocked()
{
    if (!header_)
        return false;
    // The writer stomps the magic while re-initializing in place and
    // changes the layout hash when its topology differs; either sign
    // means cached slot indices cannot be trusted.
    uint32_t magic = std::atomic_ref<const uint32_t>(header_->magic)
                         .load(std::memory_order_acquire);
    if (magic != kShmMagic)
        return false;
    if (loadPayload(header_->layoutHash) != layoutHash_)
        return false;
    uint64_t heartbeat =
        std::atomic_ref<const uint64_t>(header_->heartbeatNanos)
            .load(std::memory_order_acquire);
    uint64_t now = nowNanos();
    if (heartbeat > now)
        return true; // clock skew between writer/reader startup
    if (now - heartbeat > staleThresholdNanos_) {
        ++stats_.staleFalls;
        return false;
    }
    return true;
}

bool
Reader::ensureUsableLocked()
{
    if (usableLocked())
        return true;
    // The segment is missing, replaced or stale. A fresh shm_open can
    // rescue us (writer restarted under the same name), but only try
    // every kReconnectNanos so a dead segment stays cheap.
    uint64_t now = nowNanos();
    if (lastConnectAttemptNanos_ != 0 &&
        now - lastConnectAttemptNanos_ < kReconnectNanos)
        return false;
    lastConnectAttemptNanos_ = now;
    tryConnectLocked();
    return usableLocked();
}

void
Reader::tryConnectLocked()
{
    ++stats_.reconnects;
    bool had_mapping = header_ != nullptr;
    uint64_t previous_hash = layoutHash_;

    int fd = ::shm_open(name_.c_str(), O_RDONLY, 0);
    if (fd < 0) {
        unmapLocked();
        return;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        static_cast<size_t>(st.st_size) < sizeof(Header)) {
        ::close(fd);
        unmapLocked();
        return;
    }
    size_t size = static_cast<size_t>(st.st_size);
    void *base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
        unmapLocked();
        return;
    }

    const auto *header = reinterpret_cast<const Header *>(base);
    uint32_t magic = std::atomic_ref<const uint32_t>(header->magic)
                         .load(std::memory_order_acquire);
    Layout layout{header->slotCount, header->aliasCount};
    if (magic != kShmMagic || header->version != kShmVersion ||
        layout.totalBytes() > size) {
        ::munmap(base, size);
        unmapLocked();
        return;
    }

    unmapLocked();
    base_ = base;
    mappedBytes_ = size;
    header_ = header;
    layout_ = layout;
    layoutHash_ = header->layoutHash;
    const auto *bytes = static_cast<const uint8_t *>(base_);
    temperatures_ = reinterpret_cast<const double *>(
        bytes + layout_.temperaturesOffset());
    utilizations_ = reinterpret_cast<const double *>(
        bytes + layout_.utilizationsOffset());

    uint64_t period_threshold = static_cast<uint64_t>(
        kStalePeriods * static_cast<double>(header->periodNanos));
    uint64_t floor_threshold =
        static_cast<uint64_t>(kStaleFloorSeconds * 1e9);
    staleThresholdNanos_ = std::max(period_threshold, floor_threshold);

    const auto *slots = reinterpret_cast<const SlotKey *>(
        bytes + layout_.slotsOffset());
    slotIndex_.reserve(layout_.slotCount);
    for (uint32_t i = 0; i < layout_.slotCount; ++i) {
        machineSet_.insert(fixedToString(slots[i].machine));
        std::string key = fixedToString(slots[i].machine) + "\n" +
                          fixedToString(slots[i].node);
        slotIndex_.emplace(std::move(key), i);
    }
    const auto *aliases = reinterpret_cast<const AliasEntry *>(
        bytes + layout_.aliasOffset());
    for (uint32_t i = 0; i < layout_.aliasCount; ++i) {
        aliasMap_.emplace(fixedToString(aliases[i].alias),
                          fixedToString(aliases[i].node));
    }
    // Slot indices are a pure function of the directory, so a remap
    // onto an identical layout (e.g. reconnecting after a stale spell)
    // keeps cached Slot handles valid; only a genuinely different
    // table invalidates them.
    if (!had_mapping || previous_hash != layoutHash_)
        ++generation_;
}

std::optional<Reader::Slot>
Reader::resolve(const std::string &machine, const std::string &component)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (!ensureUsableLocked())
        return std::nullopt;
    auto it = slotIndex_.find(machine + "\n" + component);
    if (it == slotIndex_.end()) {
        auto alias = aliasMap_.find(component);
        if (alias == aliasMap_.end())
            return std::nullopt;
        it = slotIndex_.find(machine + "\n" + alias->second);
        if (it == slotIndex_.end())
            return std::nullopt;
    }
    return Slot{it->second, generation_};
}

Reader::Resolution
Reader::resolveDetailed(const std::string &machine,
                        const std::string &component)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Resolution result;
    if (!ensureUsableLocked())
        return result; // Unavailable
    if (machineSet_.find(machine) == machineSet_.end()) {
        result.status = ResolveStatus::UnknownMachine;
        return result;
    }
    auto it = slotIndex_.find(machine + "\n" + component);
    if (it == slotIndex_.end()) {
        auto alias = aliasMap_.find(component);
        if (alias != aliasMap_.end())
            it = slotIndex_.find(machine + "\n" + alias->second);
        if (it == slotIndex_.end()) {
            result.status = ResolveStatus::UnknownComponent;
            return result;
        }
    }
    result.status = ResolveStatus::Ok;
    result.slot = Slot{it->second, generation_};
    return result;
}

std::optional<Reader::Sample>
Reader::readLocked(const Slot &slot)
{
    ++stats_.reads;
    if (!ensureUsableLocked())
        return std::nullopt;
    if (slot.generation != generation_ || slot.index >= layout_.slotCount)
        return std::nullopt;

    for (int attempt = 0; attempt < kMaxSeqlockRetries; ++attempt) {
        uint64_t before = seqlockReadBegin(header_->sequence);
        Sample sample;
        sample.temperature = loadPayload(temperatures_[slot.index]);
        sample.utilization = loadPayload(utilizations_[slot.index]);
        sample.iteration = loadPayload(header_->iteration);
        sample.emulatedSeconds = loadPayload(header_->emulatedSeconds);
        if (seqlockReadValidate(header_->sequence, before)) {
            ++stats_.hits;
            return sample;
        }
        ++stats_.seqlockRetries;
    }
    return std::nullopt;
}

std::optional<Reader::Sample>
Reader::read(const Slot &slot)
{
    std::lock_guard<std::mutex> guard(mutex_);
    return readLocked(slot);
}

std::optional<Reader::Sample>
Reader::read(const std::string &machine, const std::string &component)
{
    auto slot = resolve(machine, component);
    if (!slot)
        return std::nullopt;
    return read(*slot);
}

bool
Reader::usable()
{
    std::lock_guard<std::mutex> guard(mutex_);
    return ensureUsableLocked();
}

uint64_t
Reader::generation()
{
    std::lock_guard<std::mutex> guard(mutex_);
    return generation_;
}

Reader::Stats
Reader::stats()
{
    std::lock_guard<std::mutex> guard(mutex_);
    return stats_;
}

} // namespace telemetry
} // namespace mercury
