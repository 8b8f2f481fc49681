/**
 * @file
 * Crash-consistent checkpointing of full solver state.
 *
 * A long Mercury run is hours of wall-clock integration plus every
 * constant `fiddle` has injected; losing the process must not lose the
 * trajectory. A Checkpoint captures everything mutable about a Solver
 * — node temperatures, utilizations, pins, heat/air-edge constants,
 * fan flow, power ranges, room sources/fractions/overrides, energy and
 * iteration counters — plus the per-sender sequence accounting of the
 * protocol layer, and serializes it to a versioned, CRC-guarded binary
 * file written atomically (temp file + fsync + rename + directory
 * fsync). Loading is paranoid: a corrupt, truncated or
 * version-mismatched file is rejected with a diagnostic, never a
 * crash, so the daemon can always fall back to a cold start.
 *
 * This library sits below src/proto on purpose: the protocol layer
 * links against it (the daemon drives a CheckpointManager; the service
 * exports its sender table as SenderRecords), never the reverse.
 */

#ifndef MERCURY_STATE_CHECKPOINT_HH
#define MERCURY_STATE_CHECKPOINT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mercury {

namespace core {
class Solver;
} // namespace core

namespace state {

/** Checkpoint file magic ("MCK1", little-endian on disk). */
constexpr uint32_t kCheckpointMagic = 0x314b434d;

/** Bump when the payload layout or its checksum changes
 *  incompatibly. 2: the header CRC is CRC-32C (util/crc32c), the
 *  WAL's checksum. A file of any other version cold-starts. */
constexpr uint32_t kCheckpointVersion = 2;

/**
 * One sender's sequence-accounting snapshot, mirrored from the
 * protocol layer's per-machine tracker so loss statistics survive a
 * solver restart instead of resetting to zero (and so a resumed daemon
 * does not misread the monitord's next sequence as a 10k-packet gap).
 */
struct SenderRecord
{
    std::string machine;
    bool started = false;
    uint64_t head = 0;
    uint64_t window = 0;
    uint64_t received = 0;
    uint64_t lost = 0;
    uint64_t duplicates = 0;
    uint64_t reordered = 0;
    uint32_t lastBacklog = 0; //!< monitord backlog depth last reported
};

/** Mutable state of one machine, in stable (id/index) order. */
struct MachineState
{
    std::string name;
    std::vector<double> temperatures; //!< node-id order, all nodes
    std::vector<uint8_t> pinned;      //!< node-id order (0/1)
    std::vector<double> pinValues;    //!< node-id order
    /** Powered nodes: (node id, utilization, base W, max W). */
    struct PoweredState
    {
        uint64_t id = 0;
        double utilization = 0.0;
        double basePower = 0.0;
        double maxPower = 0.0;
    };
    std::vector<PoweredState> powered;
    std::vector<double> heatKs;       //!< heat-edge index order
    std::vector<double> airFractions; //!< air-edge index order
    double fanCfm = 0.0;
    double energyConsumed = 0.0;
};

/** Mutable state of the room model. */
struct RoomState
{
    /** (source vertex name, supply temperature). */
    std::vector<std::pair<std::string, double>> sources;
    std::vector<double> edgeFractions; //!< room-edge index order
    /** Machines whose inlet is overridden, with the forced value. */
    std::vector<std::pair<std::string, double>> inletOverrides;
};

/** Full solver + protocol state at one instant. */
struct Checkpoint
{
    uint64_t iterations = 0;
    double iterationSeconds = 1.0;
    uint64_t topologyHash = 0; //!< guards against config mismatch
    uint64_t saveCount = 0;    //!< monotonic across restarts
    std::vector<MachineState> machines;
    std::optional<RoomState> room;
    std::vector<SenderRecord> senders;
};

/**
 * FNV-1a hash of the solver's structure (machine/node/edge names and
 * counts, room graph). Restoring a checkpoint against a solver with a
 * different hash is refused: the dense id-order vectors would land on
 * the wrong nodes.
 */
uint64_t topologyHash(const core::Solver &solver);

/** Snapshot everything mutable about @p solver. */
Checkpoint captureSolver(const core::Solver &solver);

/**
 * The capture behind captureSolver(), in place: every solver field of
 * @p out is overwritten, with @p topology_hash (the caller's
 * topologyHash(solver)) as its hash. Its vectors and strings are
 * resized, not rebuilt, so capturing an unchanged solver into the
 * same Checkpoint again allocates nothing. saveCount and senders are
 * the caller's and are left alone.
 */
void captureSolver(const core::Solver &solver, uint64_t topology_hash,
                   Checkpoint *out);

/**
 * Write @p checkpoint back into @p solver. Verifies the topology hash
 * and every per-machine shape first; on mismatch returns false with a
 * diagnostic in @p error and leaves the solver untouched. Power ranges
 * are only re-applied when they differ from the live model, so a
 * non-linear (table/counter) model that fiddle never replaced is
 * preserved.
 */
bool restoreSolver(core::Solver &solver, const Checkpoint &checkpoint,
                   std::string *error);

/** @name Binary codec */
/// @{

/** Serialize to the versioned on-disk payload (header included). */
std::vector<uint8_t> encodeCheckpoint(const Checkpoint &checkpoint);

/**
 * The encoder behind encodeCheckpoint(): resize @p out to the exact
 * encoded size and fill it. Encoding into a buffer that already has
 * the capacity allocates nothing.
 */
void encodeCheckpoint(const Checkpoint &checkpoint,
                      std::vector<uint8_t> *out);

/**
 * Parse an encoded checkpoint. Every read is bounds-checked and every
 * count/float sanity-checked; any violation (short buffer, bad magic,
 * future version, CRC mismatch, non-finite doubles, absurd counts)
 * returns false with a diagnostic — never throws, never reads out of
 * bounds.
 */
bool decodeCheckpoint(const uint8_t *data, size_t size, Checkpoint *out,
                      std::string *error);

/// @}
/** @name Atomic file I/O */
/// @{

/**
 * Durably replace @p path with @p checkpoint through atomicWriteFile
 * (util/fileio): write <path>.tmp, fsync it, rename over @p path,
 * fsync the directory. A crash at any point leaves either the previous
 * complete file or a stray .tmp — never a torn checkpoint under the
 * real name.
 */
bool saveCheckpointFile(const std::string &path,
                        const Checkpoint &checkpoint, std::string *error);

/** Load (util/fileio's readFileBytes) and fully validate @p path. */
bool loadCheckpointFile(const std::string &path, Checkpoint *out,
                        std::string *error);

/// @}

/**
 * Policy around one checkpoint file: periodic saves, boot-time
 * restore, and the observability counters `fiddle stats` reports.
 * Single-threaded by design — the solver daemon interleaves packets
 * and timers on one thread, and the trace runner is synchronous.
 *
 * A save reuses what does not change between saves: the topology
 * hash, computed once at construction, and the Checkpoint and byte
 * buffer of the previous save, which the next capture and encode
 * overwrite in place.
 */
class CheckpointManager
{
  public:
    struct Config
    {
        std::string path;            //!< checkpoint file
        double periodSeconds = 30.0; //!< timer period; <= 0 disables
    };

    /**
     * Build the manager once the solver's topology is final: every
     * machine, its powered nodes and the room must be in place. The
     * constructor hashes that topology, and every save and the boot
     * restore check use the hash.
     */
    CheckpointManager(core::Solver &solver, Config config);

    /** topologyHash() of the solver, as of construction. */
    uint64_t topologyHash() const { return topologyHash_; }

    /** Protocol-layer glue: how to snapshot / reinstall senders. The
     *  exporter overwrites the kept Checkpoint's sender vector, so it
     *  can reuse the records and names of the last save. */
    void setSenderExporter(
        std::function<void(std::vector<SenderRecord> &)> fn)
    {
        senderExporter_ = std::move(fn);
    }
    void setSenderImporter(
        std::function<void(const std::vector<SenderRecord> &)> fn)
    {
        senderImporter_ = std::move(fn);
    }

    /**
     * Try to restore the file into the solver. Any failure (missing,
     * corrupt, topology mismatch) logs the reason and returns false —
     * the caller proceeds with a cold start. On success the sender
     * importer runs and lastRestoreIteration() reports the resumed
     * iteration count.
     */
    bool restoreAtBoot();

    /** Capture + write immediately (fiddle checkpoint, shutdown). */
    bool saveNow(std::string *error = nullptr);

    /** Save when the configured period has elapsed since the last. */
    void maybeSave();

    /** @name Observability (fiddle stats) */
    /// @{
    bool restored() const { return restored_; }
    uint64_t lastRestoreIteration() const { return lastRestoreIteration_; }
    /** Seconds since the last successful save; negative = never. */
    double lastSaveAgeSeconds() const;
    uint64_t saveCount() const { return saveCount_; }
    uint64_t failedSaves() const { return failedSaves_; }
    const std::string &path() const { return config_.path; }
    /// @}

  private:
    core::Solver &solver_;
    Config config_;
    uint64_t topologyHash_;
    Checkpoint checkpoint_;      //!< the last save's capture, reused
    std::vector<uint8_t> bytes_; //!< the last save's encoding, reused
    std::function<void(std::vector<SenderRecord> &)> senderExporter_;
    std::function<void(const std::vector<SenderRecord> &)> senderImporter_;
    bool restored_ = false;
    uint64_t lastRestoreIteration_ = 0;

    /** Save bookkeeping is written by the solver/checkpoint thread but
     *  read by the request plane's serve workers (`fiddle stats`
     *  reports checkpoint age), so the read-side fields are relaxed
     *  atomics. */
    std::atomic<uint64_t> saveCount_{0}; //!< carried over from a restore
    uint64_t failedSaves_ = 0;
    std::atomic<bool> everSaved_{false};
    std::atomic<uint64_t> lastSaveNanos_{0}; //!< monotonic
    uint64_t nextSaveNanos_ = 0; //!< monotonic deadline for maybeSave
};

} // namespace state
} // namespace mercury

#endif // MERCURY_STATE_CHECKPOINT_HH
