/**
 * @file
 * Telemetry reader: maps a writer's shared-memory snapshot segment
 * read-only and answers sensor reads with a pair of seqlock-protected
 * loads — no sockets, no syscalls on the hot path beyond one
 * clock_gettime for the staleness check.
 *
 * The reader is deliberately paranoid, because its whole job is to be
 * a *silent* fast path under the UDP transport:
 *
 *  - a missing segment, a magic/version/layout mismatch, a torn read
 *    that never settles, or a heartbeat older than the staleness
 *    threshold all surface as nullopt, and the caller falls back to
 *    the network;
 *  - every failed read cheaply re-checks whether the segment has come
 *    back (reconnect attempts are throttled so a dead segment costs a
 *    couple of loads, not a shm_open storm);
 *  - slot handles carry the mapping generation, so indices cached by
 *    the sensor library are invalidated automatically when a restarted
 *    writer publishes a different topology.
 */

#ifndef MERCURY_TELEMETRY_READER_HH
#define MERCURY_TELEMETRY_READER_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "telemetry/layout.hh"

namespace mercury {
namespace telemetry {

/**
 * Read-only view of one telemetry segment.
 *
 * All public methods are thread-safe (an internal mutex serializes
 * them); cross-process consistency against the writer is the
 * seqlock's job.
 */
class Reader
{
  public:
    /** One consistent snapshot of a slot. */
    struct Sample
    {
        double temperature = 0.0;
        double utilization = 0.0;
        uint64_t iteration = 0;
        double emulatedSeconds = 0.0;
    };

    /** Resolved slot handle; valid while the mapping generation holds. */
    struct Slot
    {
        uint32_t index = 0;
        uint64_t generation = 0;
    };

    /** Observable reader health (tests and path logging). */
    struct Stats
    {
        uint64_t reads = 0;          //!< read() calls
        uint64_t hits = 0;           //!< consistent samples returned
        uint64_t seqlockRetries = 0; //!< raced publishes
        uint64_t staleFalls = 0;     //!< reads refused on old heartbeat
        uint64_t reconnects = 0;     //!< (re)connection attempts
    };

    /** Does not connect eagerly; the first use does. */
    explicit Reader(std::string shm_name);
    ~Reader();

    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    const std::string &name() const { return name_; }

    /**
     * Resolve machine.component to a slot, through the segment's alias
     * table. nullopt when the segment is unusable or has no such slot.
     */
    std::optional<Slot> resolve(const std::string &machine,
                                const std::string &component);

    /** Why a resolveDetailed() call produced no slot. */
    enum class ResolveStatus : uint8_t {
        Ok = 0,
        Unavailable = 1,      //!< no usable segment right now
        UnknownMachine = 2,   //!< machine not in the directory
        UnknownComponent = 3, //!< machine known, component/alias not
    };

    /** resolve() plus the reason on failure. */
    struct Resolution
    {
        ResolveStatus status = ResolveStatus::Unavailable;
        Slot slot;
    };

    /**
     * Like resolve(), but distinguishes "no segment" from "segment up,
     * no such machine/component" — SolverService::receive answers
     * sensor RPCs from the snapshot and must return the same
     * UnknownMachine/UnknownComponent statuses the solver would.
     */
    Resolution resolveDetailed(const std::string &machine,
                               const std::string &component);

    /** Read one slot; nullopt on any fast-path miss (see file docs). */
    std::optional<Sample> read(const Slot &slot);

    /** resolve + read in one call (convenience, uncached). */
    std::optional<Sample> read(const std::string &machine,
                               const std::string &component);

    /** True when a mapping exists and looks alive right now. */
    bool usable();

    /** Bumps every time a (re)connect builds a new slot index. */
    uint64_t generation();

    Stats stats();

    /**
     * Test hook: replace the staleness clock (nanoseconds, monotonic).
     * Pass nullptr to restore the real clock. Not thread-safe against
     * in-flight reads; set it while readers are quiescent.
     */
    static void setClockForTest(std::function<uint64_t()> clock);

  private:
    uint64_t nowNanos() const;
    bool usableLocked();
    bool ensureUsableLocked();
    void tryConnectLocked();
    void unmapLocked();
    std::optional<Sample> readLocked(const Slot &slot);

    std::string name_;

    std::mutex mutex_;
    void *base_ = nullptr;
    size_t mappedBytes_ = 0;
    const Header *header_ = nullptr;
    const double *temperatures_ = nullptr;
    const double *utilizations_ = nullptr;
    Layout layout_;
    uint64_t layoutHash_ = 0;
    uint64_t staleThresholdNanos_ = 0;
    uint64_t generation_ = 0;
    uint64_t lastConnectAttemptNanos_ = 0;

    /** machine '\n' node -> slot index, rebuilt per generation. */
    std::unordered_map<std::string, uint32_t> slotIndex_;

    /** Machines present in the directory (resolveDetailed statuses). */
    std::unordered_set<std::string> machineSet_;

    /** alias -> node name, from the segment's alias table. */
    std::unordered_map<std::string, std::string> aliasMap_;

    Stats stats_;
};

} // namespace telemetry
} // namespace mercury

#endif // MERCURY_TELEMETRY_READER_HH
