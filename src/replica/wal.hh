/**
 * @file
 * Deterministic mutation write-ahead log.
 *
 * PRs 1/5/7 made the solver bitwise-deterministic: given the same
 * configuration and the same mutations applied at the same iteration
 * boundaries, two solvers produce identical temperature trajectories.
 * That turns replication and post-mortem reproduction into an *input*
 * problem — record every externally sourced mutation at the single
 * serialization point (the solver thread draining the request plane's
 * MPSC queue) and any run can be replayed bitwise.
 *
 * A WAL file is a 32-byte header followed by CRC-guarded records:
 *
 *   header:  u32 magic "MWL1" | u32 version | u64 topologyHash
 *            | u64 startIteration | u64 startSequence
 *   record:  u32 crc32c(kind..payload) | u8 kind | u8 reserved
 *            | u16 payloadLength | u64 sequence | u64 iteration
 *            | payload bytes
 *
 * Everything is little-endian, written and read through the shared
 * `util/bytes` codec.
 * Records carry opaque payloads — the proto layer owns the compact
 * mutation encoding (proto/wal_codec) so this library stays free of a
 * proto dependency and the replication wire format can ship records
 * verbatim.
 *
 * sequence numbers are contiguous from the header's startSequence; a
 * reader treats the first CRC failure, truncation, or sequence break
 * as the end of the valid prefix (tailOk=false) rather than an error —
 * a torn tail after a crash is expected, and the caller degrades to
 * the records before the tear (or the latest checkpoint).
 *
 * The WAL rotates at checkpoint saves taken at the loop top: the fresh
 * file's startIteration/startSequence then name exactly the suffix a
 * restored checkpoint needs. Saves triggered mid-drain by `fiddle
 * checkpoint` do not rotate; replay instead skips records older than
 * the checkpoint and relies on mutations being absolute sets, so
 * re-applying the same-iteration records it cannot order against the
 * mid-drain save is idempotent.
 */

#ifndef MERCURY_REPLICA_WAL_HH
#define MERCURY_REPLICA_WAL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mercury {

namespace core {
class Solver;
} // namespace core

namespace replica {

constexpr uint32_t kWalMagic = 0x314c574d; // "MWL1" little-endian
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 32;

/** crc + kind + reserved + length + sequence + iteration. */
constexpr size_t kWalRecordOverhead = 24;

/** Hard ceiling on one record's payload; anything above is garbage
 *  regardless of what the CRC says. */
constexpr size_t kWalMaxPayload = 4096;

enum class WalRecordKind : uint8_t {
    /** One queued mutation (compact proto encoding, see
     *  proto/wal_codec). */
    Mutation = 1,
    /** A checkpoint save completed; payload = u64 saveCount. Replay
     *  uses it for diagnostics, standbys for nothing — it exists so a
     *  WAL is self-describing about where durable state landed. */
    CheckpointMarker = 2,
    /** A standby promoted itself at this iteration. Marks the lineage
     *  handover in the standby's own WAL. */
    Promotion = 3,
};

struct WalRecord
{
    uint64_t sequence = 0;
    uint64_t iteration = 0; //!< solver iteration the record was drained at
    WalRecordKind kind = WalRecordKind::Mutation;
    std::vector<uint8_t> payload;
};

struct WalHeader
{
    uint64_t topologyHash = 0;
    uint64_t startIteration = 0; //!< solver iteration at file creation
    uint64_t startSequence = 1;  //!< sequence of the first record
};

/** Serialize one record (including its CRC) onto @p out. */
void appendRecordBytes(std::vector<uint8_t> &out, const WalRecord &record);

/**
 * Parse one record at @p data. Returns the bytes consumed, or 0 when
 * the prefix is not a whole valid record (truncated, oversized, CRC
 * mismatch); @p error then says why.
 */
size_t parseRecord(const uint8_t *data, size_t size, WalRecord *out,
                   std::string *error);

/** Serialize / parse the 32-byte file header. */
std::vector<uint8_t> encodeWalHeader(const WalHeader &header);
bool decodeWalHeader(const uint8_t *data, size_t size, WalHeader *out,
                     std::string *error);

struct WalReadResult
{
    WalHeader header;
    std::vector<WalRecord> records; //!< the valid contiguous prefix
    bool tailOk = true;             //!< false: tear detected after the prefix
    std::string tailError;          //!< why the tail was rejected
};

/**
 * Read a WAL file. Returns false only for header-level failures (no
 * file, bad magic/version); a damaged tail returns true with
 * tailOk=false and the records before the damage.
 */
bool readWalFile(const std::string &path, WalReadResult *out,
                 std::string *error);

/**
 * Append-only WAL writer. Single-threaded (the solver thread owns it).
 * Appends buffer in memory; flush() hands the batch to the kernel once
 * per queue drain; fsync happens only at rotation and close — the
 * durability window is one checkpoint interval by design, because the
 * standby (not the disk) is the low-latency copy.
 */
class WalWriter
{
  public:
    /**
     * Create/truncate @p path with @p header. An existing file is
     * first renamed to path + ".old" so a crashed predecessor's log
     * survives for post-mortems. Null on failure (with @p error).
     */
    static std::unique_ptr<WalWriter>
    create(const std::string &path, const WalHeader &header,
           std::string *error);

    ~WalWriter();

    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /** Buffer one record. */
    void append(const WalRecord &record);

    /** Write buffered records to the kernel; returns false on I/O
     *  failure (logged once by the caller; the WAL is then dead). */
    bool flush();

    /** flush() + fsync. */
    bool sync();

    /**
     * Begin a fresh log generation: sync and close the current file,
     * rename it to path + ".old", and start a new file under the same
     * path with @p header. Call only when no unflushed appends
     * straddle the boundary (the daemon rotates at the loop top,
     * immediately after the checkpoint save the header describes).
     */
    bool rotate(const WalHeader &header, std::string *error);

    const std::string &path() const { return path_; }
    uint64_t recordsAppended() const { return recordsAppended_; }
    uint64_t bytesAppended() const { return bytesAppended_; }
    bool failed() const { return failed_; }

  private:
    explicit WalWriter(std::string path);

    /** Rename an existing file at path() to path() + ".old", open a
     *  fresh one there and write @p header into it. */
    bool startGeneration(const WalHeader &header, std::string *error);

    int fd_ = -1;
    std::string path_;
    std::vector<uint8_t> buffer_;
    uint64_t recordsAppended_ = 0;
    uint64_t bytesAppended_ = 0;
    bool failed_ = false;
};

struct ReplayStats
{
    uint64_t applied = 0;  //!< mutation records handed to the applier
    uint64_t skipped = 0;  //!< records older than the starting iteration
    uint64_t markers = 0;  //!< checkpoint/promotion markers seen
    uint64_t finalIteration = 0;
};

/**
 * Replay @p wal into @p solver: step the solver (through iterate(), so
 * telemetry hooks fire like they did live) up to each record's
 * iteration and hand Mutation records to @p apply in sequence order.
 * Records at iterations the solver has already passed (a checkpoint
 * newer than the WAL start) are skipped — mutations are absolute sets,
 * so the checkpoint already carries their effect. After the last
 * record the solver is stepped to @p replay_to_iteration when that is
 * further. Returns false with @p error when the WAL's topology hash
 * does not match the solver or the solver is already past a mutation's
 * iteration mid-file (ordering violation).
 */
bool replayWal(core::Solver &solver, const WalReadResult &wal,
               const std::function<void(const WalRecord &)> &apply,
               uint64_t replay_to_iteration, ReplayStats *stats,
               std::string *error);

/**
 * Order-sensitive hash of the solver's replicated state: iteration
 * count, every machine's temperature vector (raw bit patterns — this
 * is a bitwise identity check, not an approximate one) and accrued
 * energy. Primary and standby exchange it periodically to verify the
 * shadow really is the same state machine.
 */
uint64_t stateHash(const core::Solver &solver);

} // namespace replica
} // namespace mercury

#endif // MERCURY_REPLICA_WAL_HH
