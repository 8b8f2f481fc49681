/**
 * @file
 * Telemetry writer: owns the shared-memory snapshot segment for one
 * Solver and republishes the whole table (iteration counter, emulated
 * clock, every node temperature, every node utilization) under the
 * seqlock. publish() is a few linear array scans — cheap enough to run
 * after every solver iteration.
 *
 * The writer is the segment's owner: it creates (or truncates) the
 * object at construction and unlinks it at destruction. The directory
 * is fixed at construction from the solver's machines/nodes/aliases;
 * grow the topology first, then build the writer.
 */

#ifndef MERCURY_TELEMETRY_WRITER_HH
#define MERCURY_TELEMETRY_WRITER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/layout.hh"

namespace mercury {

namespace core {
class Solver;
class ThermalGraph;
} // namespace core

namespace telemetry {

/**
 * Publishes solver snapshots into a POSIX shared-memory segment.
 */
class Writer
{
  public:
    /**
     * Create (or replace) the segment @p shm_name and fill its
     * directory from @p solver. @p period_seconds is the expected
     * publish cadence, stored so readers can judge staleness; values
     * <= 0 fall back to 1 s.
     *
     * Construction never throws on shm failure: a writer that could
     * not create its segment is inert (valid() == false, publish() is
     * a no-op) so emulation continues without the fast path.
     */
    Writer(std::string shm_name, core::Solver &solver,
           double period_seconds);

    /** Unmaps and unlinks the segment (readers fall back to UDP). */
    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    bool valid() const { return header_ != nullptr; }
    const std::string &name() const { return name_; }
    uint32_t slotCount() const { return layout_.slotCount; }

    /** This segment incarnation's boot counter (1 on a fresh object,
     *  previous + 1 when the name survived a crashed writer). */
    uint32_t bootGeneration() const { return bootGeneration_; }

    /**
     * Snapshot the solver into the segment and refresh the heartbeat.
     * Thread-safe (an internal mutex serializes concurrent publishers,
     * e.g. a daemon heartbeat racing an external stepping thread).
     */
    void publish();

    /**
     * Refresh the heartbeat without touching the payload. For serve
     * loops that want to signal "writer alive" while another thread
     * owns the solver (publish() would read solver state unlocked).
     */
    void refreshHeartbeat();

    /**
     * Install a Solver iteration hook that calls publish() after
     * every iterate(). The hook is removed by the destructor.
     */
    void installHook();

  private:
    void unmap();

    std::string name_;
    core::Solver &solver_;

    /** Resolved payload source for one slot. */
    struct Source
    {
        const core::ThermalGraph *graph;
        uint32_t node;
    };
    std::vector<Source> sources_;

    /**
     * One machine's contiguous slot range plus the graph stateVersion
     * last copied out. When a frozen (or otherwise untouched) machine
     * republishes, its version is unchanged and publish() skips the
     * per-node recopy — the segment already holds those values.
     */
    struct Group
    {
        const core::ThermalGraph *graph;
        uint32_t firstSlot;
        uint32_t count;
        uint64_t lastStamp = 0;
        bool primed = false;
    };
    std::vector<Group> groups_;

    Layout layout_;
    void *base_ = nullptr;
    size_t mappedBytes_ = 0;
    Header *header_ = nullptr;
    double *temperatures_ = nullptr;
    double *utilizations_ = nullptr;

    std::mutex publishMutex_;
    bool hookInstalled_ = false;
    uint32_t bootGeneration_ = 0;
};

} // namespace telemetry
} // namespace mercury

#endif // MERCURY_TELEMETRY_WRITER_HH
