#include "replica/wal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/solver.hh"
#include "core/thermal_graph.hh"
#include "state/checkpoint.hh"
#include "util/bytes.hh"
#include "util/crc32c.hh"
#include "util/fileio.hh"
#include "util/strings.hh"

namespace mercury {
namespace replica {

namespace {

constexpr size_t kMaxWalFileBytes = 1u << 30; // 1 GiB

} // namespace

void
appendRecordBytes(std::vector<uint8_t> &out, const WalRecord &record)
{
    size_t at = out.size();
    out.resize(at + kWalRecordOverhead + record.payload.size());
    ByteWriter w(out.data() + at, out.size() - at);
    w.u32(0); // CRC patched below
    w.u8(static_cast<uint8_t>(record.kind));
    w.u8(0); // reserved
    w.u16(static_cast<uint16_t>(record.payload.size()));
    w.u64(record.sequence);
    w.u64(record.iteration);
    w.bytes(record.payload.data(), record.payload.size());
    w.patchU32(0, crc32c(out.data() + at + 4, w.offset() - 4));
}

size_t
parseRecord(const uint8_t *data, size_t size, WalRecord *out,
            std::string *error)
{
    ByteReader in(data, size);
    uint32_t crc = in.u32();
    uint8_t kind = in.u8();
    in.u8(); // reserved
    uint16_t payload_length = in.u16();
    uint64_t sequence = in.u64();
    uint64_t iteration = in.u64();
    if (!in.ok()) {
        setError(error, "truncated record header");
        return 0;
    }
    if (payload_length > kWalMaxPayload) {
        setError(error, "absurd payload length " +
                            std::to_string(payload_length));
        return 0;
    }
    const uint8_t *payload = in.bytes(payload_length);
    if (!payload) {
        setError(error, "truncated record payload");
        return 0;
    }
    size_t total = in.offset();
    if (crc32c(data + 4, total - 4) != crc) {
        setError(error, "record CRC mismatch");
        return 0;
    }
    if (kind < 1 || kind > 3) {
        setError(error, "unknown record kind " + std::to_string(kind));
        return 0;
    }
    out->kind = static_cast<WalRecordKind>(kind);
    out->sequence = sequence;
    out->iteration = iteration;
    out->payload.assign(payload, payload + payload_length);
    return total;
}

std::vector<uint8_t>
encodeWalHeader(const WalHeader &header)
{
    std::vector<uint8_t> out;
    out.reserve(kWalHeaderBytes);
    ByteWriter w(out);
    w.u32(kWalMagic);
    w.u32(kWalVersion);
    w.u64(header.topologyHash);
    w.u64(header.startIteration);
    w.u64(header.startSequence);
    return out;
}

bool
decodeWalHeader(const uint8_t *data, size_t size, WalHeader *out,
                std::string *error)
{
    ByteReader in(data, size);
    uint32_t magic = in.u32();
    uint32_t version = in.u32();
    WalHeader header;
    header.topologyHash = in.u64();
    header.startIteration = in.u64();
    header.startSequence = in.u64();
    if (!in.ok()) {
        setError(error, "truncated header (" + std::to_string(size) +
                            " bytes)");
        return false;
    }
    if (magic != kWalMagic) {
        setError(error, "bad magic");
        return false;
    }
    if (version != kWalVersion) {
        setError(error, "unsupported version " + std::to_string(version));
        return false;
    }
    *out = header;
    return true;
}

bool
readWalFile(const std::string &path, WalReadResult *out,
            std::string *error)
{
    std::vector<uint8_t> bytes;
    if (!readFileBytes(path, kMaxWalFileBytes, &bytes, error))
        return false;

    WalReadResult result;
    if (!decodeWalHeader(bytes.data(), bytes.size(), &result.header,
                         error))
        return false;

    size_t offset = kWalHeaderBytes;
    uint64_t expect = result.header.startSequence;
    uint64_t last_iteration = result.header.startIteration;
    while (offset < bytes.size()) {
        WalRecord record;
        std::string why;
        size_t consumed =
            parseRecord(bytes.data() + offset, bytes.size() - offset,
                        &record, &why);
        if (consumed == 0) {
            result.tailOk = false;
            result.tailError =
                why + " at offset " + std::to_string(offset);
            break;
        }
        // A sequence or iteration break after a clean CRC means the
        // tail of a previous generation leaked past a torn rotation;
        // stop at the break like any other tear.
        if (record.sequence != expect) {
            result.tailOk = false;
            result.tailError =
                "sequence break (want " + std::to_string(expect) +
                ", record carries " + std::to_string(record.sequence) +
                ") at offset " + std::to_string(offset);
            break;
        }
        if (record.iteration < last_iteration) {
            result.tailOk = false;
            result.tailError = "iteration went backwards at offset " +
                               std::to_string(offset);
            break;
        }
        last_iteration = record.iteration;
        ++expect;
        offset += consumed;
        result.records.push_back(std::move(record));
    }
    *out = std::move(result);
    return true;
}

WalWriter::WalWriter(std::string path) : path_(std::move(path))
{
    buffer_.reserve(64 * 1024);
}

WalWriter::~WalWriter()
{
    if (fd_ >= 0) {
        sync();
        ::close(fd_);
    }
}

std::unique_ptr<WalWriter>
WalWriter::create(const std::string &path, const WalHeader &header,
                  std::string *error)
{
    std::unique_ptr<WalWriter> writer(new WalWriter(path));
    if (!writer->startGeneration(header, error))
        return nullptr;
    return writer;
}

bool
WalWriter::startGeneration(const WalHeader &header, std::string *error)
{
    // Keep the predecessor — a crashed run's log, or the generation a
    // rotation just closed — around for post-mortems.
    std::string old = path_ + ".old";
    if (::rename(path_.c_str(), old.c_str()) != 0 && errno != ENOENT) {
        setError(error, "rename " + path_ + " -> " + old + ": " +
                            std::strerror(errno));
        failed_ = true;
        return false;
    }
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) {
        setError(error, "open " + path_ + ": " + std::strerror(errno));
        failed_ = true;
        return false;
    }
    std::vector<uint8_t> bytes = encodeWalHeader(header);
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    if (!flush()) {
        setError(error, "write " + path_ + ": " + std::strerror(errno));
        return false;
    }
    return true;
}

void
WalWriter::append(const WalRecord &record)
{
    if (failed_)
        return;
    size_t before = buffer_.size();
    appendRecordBytes(buffer_, record);
    ++recordsAppended_;
    bytesAppended_ += buffer_.size() - before;
}

bool
WalWriter::flush()
{
    if (failed_)
        return false;
    if (!writeAll(fd_, buffer_.data(), buffer_.size())) {
        failed_ = true;
        return false;
    }
    buffer_.clear();
    return true;
}

bool
WalWriter::sync()
{
    if (!flush())
        return false;
    if (::fsync(fd_) != 0) {
        failed_ = true;
        return false;
    }
    return true;
}

bool
WalWriter::rotate(const WalHeader &header, std::string *error)
{
    if (!sync()) {
        setError(error, "sync " + path_ + ": " + std::strerror(errno));
        return false;
    }
    ::close(fd_);
    fd_ = -1;
    return startGeneration(header, error);
}

bool
replayWal(core::Solver &solver, const WalReadResult &wal,
          const std::function<void(const WalRecord &)> &apply,
          uint64_t replay_to_iteration, ReplayStats *stats,
          std::string *error)
{
    if (wal.header.topologyHash != state::topologyHash(solver)) {
        setError(error, "WAL topology hash does not match this solver");
        return false;
    }
    ReplayStats local;
    for (const WalRecord &record : wal.records) {
        // Records from before the restored checkpoint are already
        // folded into it; mutations are absolute sets, so records at
        // exactly the checkpoint's iteration re-apply harmlessly.
        if (record.iteration < solver.iterations()) {
            if (record.kind == WalRecordKind::Mutation)
                ++local.skipped;
            else
                ++local.markers;
            continue;
        }
        // Every record kind steps the solver: a marker (checkpoint or
        // promotion) pins the iteration the daemon had reached, and the
        // next generation's WAL starts exactly there.
        while (solver.iterations() < record.iteration)
            solver.iterate();
        if (record.kind != WalRecordKind::Mutation) {
            ++local.markers;
            continue;
        }
        apply(record);
        ++local.applied;
    }
    while (solver.iterations() < replay_to_iteration)
        solver.iterate();
    local.finalIteration = solver.iterations();
    if (stats)
        *stats = local;
    return true;
}

uint64_t
stateHash(const core::Solver &solver)
{
    // Raw bit patterns: this certifies bitwise identity between
    // primary and standby, so no tolerance anywhere.
    Fnv1a fnv;
    fnv.u64(solver.iterations());
    for (const std::string &name : solver.machineNames()) {
        const core::ThermalGraph &machine = solver.machine(name);
        for (double t : machine.temperatures())
            fnv.f64(t);
        fnv.f64(machine.energyConsumed());
    }
    return fnv.value();
}

} // namespace replica
} // namespace mercury
