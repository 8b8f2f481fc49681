/**
 * @file
 * On-disk (well, in-shared-memory) layout of the Mercury telemetry
 * plane: one seqlock-versioned snapshot table that the solver's writer
 * republishes after every iteration and that any number of reader
 * processes map read-only.
 *
 * The segment is a single fixed-size region:
 *
 *   Header                          (seqlock, heartbeat, counts)
 *   SlotKey[slotCount]              (machine + node name directory)
 *   AliasEntry[aliasCount]          (component alias -> node name)
 *   double temperatures[slotCount]  (payload, seqlock-protected)
 *   double utilizations[slotCount]  (payload, seqlock-protected)
 *
 * It carries temperatures and utilizations only; metrics leave the
 * daemon through the MetricsRequest RPC and the Prometheus text file.
 *
 * The directory and alias table are written once at creation and never
 * change; `layoutHash` fingerprints them (plus the counts) so a reader
 * that cached slot indices can detect a writer restart with a
 * different topology in one load. Only the payload (plus the
 * iteration counter and emulated clock in the header) changes per
 * publish, under the seqlock.
 *
 * Staleness: the writer refreshes `heartbeatNanos` (CLOCK_MONOTONIC)
 * on every publish. A reader treats the segment as dead when the
 * heartbeat is older than kStalePeriods iteration periods (with a
 * small floor so sub-millisecond periods do not flap); dead segments
 * make readers fall back to the UDP transport.
 */

#ifndef MERCURY_TELEMETRY_LAYOUT_HH
#define MERCURY_TELEMETRY_LAYOUT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace mercury {
namespace telemetry {

/** Segment magic ('M''T''L''1'). */
inline constexpr uint32_t kShmMagic = 0x314c544dU;

/** Layout version; bump on any incompatible change to this file.
 *  v3: the v2 metrics region (and Header::metricCount) removed. */
inline constexpr uint32_t kShmVersion = 3;

/** Fixed name width, matching the 128-byte wire protocol's fields. */
inline constexpr size_t kNameWidth = 32;

/** Heartbeats older than this many iteration periods are stale. */
inline constexpr double kStalePeriods = 4.0;

/** Floor on the staleness threshold [s] (tiny periods do not flap). */
inline constexpr double kStaleFloorSeconds = 0.05;

/** One directory entry: which machine/node a payload slot belongs to. */
struct SlotKey
{
    char machine[kNameWidth];
    char node[kNameWidth];
};

/** One alias-table entry (e.g. "disk" -> "disk_platters"). */
struct AliasEntry
{
    char alias[kNameWidth];
    char node[kNameWidth];
};

/**
 * Segment header. All multi-byte fields are written by one machine and
 * read on the same machine (shared memory never crosses hosts), so no
 * endianness conversion is needed.
 */
struct Header
{
    uint32_t magic = 0;
    uint32_t version = 0;
    uint64_t layoutHash = 0;   //!< FNV-1a over counts + directory + aliases
    uint32_t slotCount = 0;
    uint32_t aliasCount = 0;
    uint32_t machineCount = 0;

    /** Incremented every time a writer (re)creates this segment; folded
     *  into layoutHash so readers that survived a writer crash cannot
     *  keep serving pre-crash snapshots through cached slot handles —
     *  their stored hash mismatches, forcing a reconnect and a handle
     *  generation bump. */
    uint32_t bootGeneration = 0;
    uint64_t periodNanos = 0;  //!< iteration period (staleness unit)

    /** Seqlock word: odd while the writer is mid-publish. Accessed via
     *  std::atomic_ref. */
    uint64_t sequence = 0;

    /** CLOCK_MONOTONIC nanos of the last publish (atomic, outside the
     *  seqlock so liveness is checkable without retrying). */
    uint64_t heartbeatNanos = 0;

    /** @name Seqlock-protected scalar payload */
    /// @{
    uint64_t iteration = 0;
    double emulatedSeconds = 0.0;
    /// @}
};

static_assert(sizeof(Header) % alignof(double) == 0,
              "payload arrays must stay 8-byte aligned");
static_assert(sizeof(SlotKey) % alignof(double) == 0 &&
                  sizeof(AliasEntry) % alignof(double) == 0,
              "directory entries must preserve payload alignment");

/** Byte offsets of each region for given table sizes. */
struct Layout
{
    uint32_t slotCount = 0;
    uint32_t aliasCount = 0;

    size_t slotsOffset() const { return sizeof(Header); }

    size_t
    aliasOffset() const
    {
        return slotsOffset() + sizeof(SlotKey) * slotCount;
    }

    size_t
    temperaturesOffset() const
    {
        return aliasOffset() + sizeof(AliasEntry) * aliasCount;
    }

    size_t
    utilizationsOffset() const
    {
        return temperaturesOffset() + sizeof(double) * slotCount;
    }

    size_t
    totalBytes() const
    {
        return utilizationsOffset() + sizeof(double) * slotCount;
    }
};

/**
 * FNV-1a over the directory and alias tables (and the counts), the
 * fingerprint a reader compares before trusting cached slot indices.
 */
uint64_t layoutHash(const SlotKey *slots, uint32_t slot_count,
                    const AliasEntry *aliases, uint32_t alias_count);

/**
 * POSIX shm object names must be "/name" (one leading slash, no
 * others); prepend the slash when the caller left it off.
 */
std::string normalizeShmName(const std::string &name);

/** The default segment name for a solver daemon on @p port. */
std::string defaultShmName(uint16_t port);

/** CLOCK_MONOTONIC in nanoseconds (the heartbeat clock). */
uint64_t monotonicNanos();

} // namespace telemetry
} // namespace mercury

#endif // MERCURY_TELEMETRY_LAYOUT_HH
