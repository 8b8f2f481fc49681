#include "replica/wal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/solver.hh"
#include "core/thermal_graph.hh"
#include "state/checkpoint.hh"
#include "util/crc32c.hh"
#include "util/logging.hh"

namespace mercury {
namespace replica {

namespace {

constexpr size_t kMaxWalFileBytes = 1u << 30; // 1 GiB

void
setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

void
putU16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t
getU16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0]) |
           static_cast<uint16_t>(p[1]) << 8;
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

void
appendRecordBytes(std::vector<uint8_t> &out, const WalRecord &record)
{
    size_t crc_at = out.size();
    putU32(out, 0); // CRC patched below
    size_t body_at = out.size();
    out.push_back(static_cast<uint8_t>(record.kind));
    out.push_back(0); // reserved
    putU16(out, static_cast<uint16_t>(record.payload.size()));
    putU64(out, record.sequence);
    putU64(out, record.iteration);
    out.insert(out.end(), record.payload.begin(), record.payload.end());
    uint32_t crc = crc32c(out.data() + body_at, out.size() - body_at);
    out[crc_at + 0] = static_cast<uint8_t>(crc);
    out[crc_at + 1] = static_cast<uint8_t>(crc >> 8);
    out[crc_at + 2] = static_cast<uint8_t>(crc >> 16);
    out[crc_at + 3] = static_cast<uint8_t>(crc >> 24);
}

size_t
parseRecord(const uint8_t *data, size_t size, WalRecord *out,
            std::string *error)
{
    if (size < kWalRecordOverhead) {
        setError(error, "truncated record header");
        return 0;
    }
    uint32_t crc = getU32(data);
    uint8_t kind = data[4];
    uint16_t payload_length = getU16(data + 6);
    if (payload_length > kWalMaxPayload) {
        setError(error, "absurd payload length " +
                            std::to_string(payload_length));
        return 0;
    }
    size_t total = kWalRecordOverhead + payload_length;
    if (size < total) {
        setError(error, "truncated record payload");
        return 0;
    }
    if (crc32c(data + 4, total - 4) != crc) {
        setError(error, "record CRC mismatch");
        return 0;
    }
    if (kind < 1 || kind > 3) {
        setError(error, "unknown record kind " + std::to_string(kind));
        return 0;
    }
    out->kind = static_cast<WalRecordKind>(kind);
    out->sequence = getU64(data + 8);
    out->iteration = getU64(data + 16);
    out->payload.assign(data + kWalRecordOverhead, data + total);
    return total;
}

std::vector<uint8_t>
encodeWalHeader(const WalHeader &header)
{
    std::vector<uint8_t> out;
    out.reserve(kWalHeaderBytes);
    putU32(out, kWalMagic);
    putU32(out, kWalVersion);
    putU64(out, header.topologyHash);
    putU64(out, header.startIteration);
    putU64(out, header.startSequence);
    return out;
}

bool
decodeWalHeader(const uint8_t *data, size_t size, WalHeader *out,
                std::string *error)
{
    if (size < kWalHeaderBytes) {
        setError(error, "truncated header (" + std::to_string(size) +
                            " bytes)");
        return false;
    }
    if (getU32(data) != kWalMagic) {
        setError(error, "bad magic");
        return false;
    }
    uint32_t version = getU32(data + 4);
    if (version != kWalVersion) {
        setError(error, "unsupported version " + std::to_string(version));
        return false;
    }
    out->topologyHash = getU64(data + 8);
    out->startIteration = getU64(data + 16);
    out->startSequence = getU64(data + 24);
    return true;
}

bool
readWalFile(const std::string &path, WalReadResult *out,
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
        static_cast<size_t>(st.st_size) > kMaxWalFileBytes) {
        setError(error,
                 "implausible file size " + std::to_string(st.st_size));
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
            break; // shrank underneath us; the tail scan copes
        got += static_cast<size_t>(n);
    }
    ::close(fd);

    WalReadResult result;
    if (!decodeWalHeader(bytes.data(), got, &result.header, error))
        return false;

    size_t offset = kWalHeaderBytes;
    uint64_t expect = result.header.startSequence;
    uint64_t last_iteration = result.header.startIteration;
    while (offset < got) {
        WalRecord record;
        std::string why;
        size_t consumed =
            parseRecord(bytes.data() + offset, got - offset, &record, &why);
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

WalWriter::WalWriter(int fd, std::string path)
    : fd_(fd), path_(std::move(path))
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
    // Keep a crashed predecessor's log around for post-mortems.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
        std::string old = path + ".old";
        if (::rename(path.c_str(), old.c_str()) != 0) {
            setError(error, "rename " + path + " -> " + old + ": " +
                                std::strerror(errno));
            return nullptr;
        }
    }
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setError(error, "open " + path + ": " + std::strerror(errno));
        return nullptr;
    }
    std::unique_ptr<WalWriter> writer(new WalWriter(fd, path));
    std::vector<uint8_t> bytes = encodeWalHeader(header);
    writer->buffer_.insert(writer->buffer_.end(), bytes.begin(),
                           bytes.end());
    if (!writer->flush()) {
        setError(error, "write " + path + ": " + std::strerror(errno));
        return nullptr;
    }
    return writer;
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
    size_t written = 0;
    while (written < buffer_.size()) {
        ssize_t n = ::write(fd_, buffer_.data() + written,
                            buffer_.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            failed_ = true;
            return false;
        }
        written += static_cast<size_t>(n);
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
    std::string old = path_ + ".old";
    if (::rename(path_.c_str(), old.c_str()) != 0) {
        setError(error, "rename " + path_ + " -> " + old + ": " +
                            std::strerror(errno));
        failed_ = true;
        return false;
    }
    int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setError(error, "open " + path_ + ": " + std::strerror(errno));
        failed_ = true;
        return false;
    }
    fd_ = fd;
    std::vector<uint8_t> bytes = encodeWalHeader(header);
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    if (!flush()) {
        setError(error, "write " + path_ + ": " + std::strerror(errno));
        return false;
    }
    return true;
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
    // FNV-1a over the raw bit patterns: this certifies bitwise
    // identity between primary and standby, so no tolerance anywhere.
    uint64_t hash = 1469598103934665603ull;
    auto mix = [&hash](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= static_cast<uint8_t>(v >> (8 * i));
            hash *= 1099511628211ull;
        }
    };
    mix(solver.iterations());
    for (const std::string &name : solver.machineNames()) {
        const core::ThermalGraph &machine = solver.machine(name);
        for (double t : machine.temperatures()) {
            uint64_t bits;
            std::memcpy(&bits, &t, sizeof(bits));
            mix(bits);
        }
        uint64_t energy_bits;
        double energy = machine.energyConsumed();
        std::memcpy(&energy_bits, &energy, sizeof(energy_bits));
        mix(energy_bits);
    }
    return hash;
}

} // namespace replica
} // namespace mercury
