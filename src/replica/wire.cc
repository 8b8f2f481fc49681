#include "replica/wire.hh"

#include "util/bytes.hh"

namespace mercury {
namespace replica {

namespace {

/** Ceiling on records per datagram; real packing stops at
 *  kReplicaDatagramMax long before this. */
constexpr uint16_t kMaxRecordsPerDatagram = 256;

/** A datagram buffer with the 8-byte header written. */
std::vector<uint8_t>
header(ReplicaMsgType type)
{
    std::vector<uint8_t> out;
    out.reserve(kReplicaDatagramMax);
    ByteWriter w(out);
    w.u32(kReplicaMagic);
    w.u8(kReplicaVersion);
    w.u8(static_cast<uint8_t>(type));
    w.u16(0); // reserved
    return out;
}

} // namespace

size_t
recordWireBytes(const WalRecord &record)
{
    return kWalRecordOverhead + record.payload.size();
}

std::vector<uint8_t>
encodeReplica(const ReplicaHello &msg)
{
    std::vector<uint8_t> out = header(ReplicaMsgType::Hello);
    ByteWriter w(out);
    w.u64(msg.topologyHash);
    w.u64(msg.lastAppliedSeq);
    w.u64(msg.standbyIteration);
    return out;
}

std::vector<uint8_t>
encodeReplica(const ReplicaHelloAck &msg)
{
    std::vector<uint8_t> out = header(ReplicaMsgType::HelloAck);
    ByteWriter w(out);
    w.u8(static_cast<uint8_t>(msg.status));
    w.u64(msg.primaryIteration);
    w.u64(msg.baseIteration);
    w.u64(msg.baseSequence);
    w.u64(msg.nextSeq);
    w.f64(msg.leaseSeconds);
    w.u32(msg.hashIterations);
    return out;
}

std::vector<uint8_t>
encodeReplica(const ReplicaRecords &msg)
{
    std::vector<uint8_t> out = header(ReplicaMsgType::Records);
    ByteWriter w(out);
    w.u64(msg.primaryIteration);
    w.u64(msg.nextSeq);
    w.u16(static_cast<uint16_t>(msg.records.size()));
    for (const WalRecord &record : msg.records)
        appendRecordBytes(out, record);
    return out;
}

std::vector<uint8_t>
encodeReplica(const ReplicaAck &msg)
{
    std::vector<uint8_t> out = header(ReplicaMsgType::Ack);
    ByteWriter w(out);
    w.u64(msg.contiguousSeq);
    w.u64(msg.appliedSeq);
    w.u64(msg.standbyIteration);
    w.u64(msg.hashIteration);
    w.u64(msg.stateHash);
    w.u8(msg.hashValid);
    return out;
}

std::vector<uint8_t>
encodeReplica(const ReplicaHeartbeat &msg)
{
    std::vector<uint8_t> out = header(ReplicaMsgType::Heartbeat);
    ByteWriter w(out);
    w.u64(msg.primaryIteration);
    w.u64(msg.nextSeq);
    w.f64(msg.leaseSeconds);
    w.u64(msg.hashIteration);
    w.u64(msg.stateHash);
    w.u8(msg.hashValid);
    return out;
}

std::optional<ReplicaMessage>
decodeReplica(const uint8_t *data, size_t size)
{
    ByteReader in(data, size);
    uint32_t magic = in.u32();
    uint8_t version = in.u8();
    uint8_t type = in.u8();
    in.u16(); // reserved
    if (!in.ok() || magic != kReplicaMagic || version != kReplicaVersion)
        return std::nullopt;

    // A message decodes only when every field read and the datagram
    // ends exactly where its layout does.
    auto whole = [&in](ReplicaMessage msg) -> std::optional<ReplicaMessage> {
        if (!in.ok() || in.remaining() != 0)
            return std::nullopt;
        return msg;
    };
    switch (static_cast<ReplicaMsgType>(type)) {
    case ReplicaMsgType::Hello: {
        ReplicaHello msg;
        msg.topologyHash = in.u64();
        msg.lastAppliedSeq = in.u64();
        msg.standbyIteration = in.u64();
        return whole(msg);
    }
    case ReplicaMsgType::HelloAck: {
        ReplicaHelloAck msg;
        uint8_t status = in.u8();
        if (status > static_cast<uint8_t>(HelloStatus::HistoryUnavailable))
            return std::nullopt;
        msg.status = static_cast<HelloStatus>(status);
        msg.primaryIteration = in.u64();
        msg.baseIteration = in.u64();
        msg.baseSequence = in.u64();
        msg.nextSeq = in.u64();
        msg.leaseSeconds = in.f64();
        msg.hashIterations = in.u32();
        return whole(msg);
    }
    case ReplicaMsgType::Records: {
        ReplicaRecords msg;
        msg.primaryIteration = in.u64();
        msg.nextSeq = in.u64();
        uint16_t count = in.u16();
        if (!in.ok() || count > kMaxRecordsPerDatagram)
            return std::nullopt;
        msg.records.reserve(count);
        for (uint16_t i = 0; i < count; ++i) {
            WalRecord record;
            size_t consumed = parseRecord(data + in.offset(),
                                          in.remaining(), &record, nullptr);
            if (consumed == 0)
                return std::nullopt;
            in.bytes(consumed);
            msg.records.push_back(std::move(record));
        }
        return whole(std::move(msg));
    }
    case ReplicaMsgType::Ack: {
        ReplicaAck msg;
        msg.contiguousSeq = in.u64();
        msg.appliedSeq = in.u64();
        msg.standbyIteration = in.u64();
        msg.hashIteration = in.u64();
        msg.stateHash = in.u64();
        msg.hashValid = in.u8();
        if (msg.hashValid > 1)
            return std::nullopt;
        return whole(msg);
    }
    case ReplicaMsgType::Heartbeat: {
        ReplicaHeartbeat msg;
        msg.primaryIteration = in.u64();
        msg.nextSeq = in.u64();
        msg.leaseSeconds = in.f64();
        msg.hashIteration = in.u64();
        msg.stateHash = in.u64();
        msg.hashValid = in.u8();
        if (msg.hashValid > 1)
            return std::nullopt;
        return whole(msg);
    }
    default:
        return std::nullopt;
    }
}

} // namespace replica
} // namespace mercury
