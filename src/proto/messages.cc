#include "proto/messages.hh"

#include "util/bytes.hh"
#include "util/logging.hh"

namespace mercury {
namespace proto {

namespace {

constexpr size_t kNameWidth = 32;
constexpr size_t kFiddleRequestWidth = kMessageSize - 8 - 4;  // 116
constexpr size_t kFiddleReplyWidth = kMessageSize - 8 - 4 - 1; // 115
constexpr size_t kMetricsFragmentWidth =
    kMessageSize - 8 - 4 - 1 - 4; // 111 (110 content bytes + NUL pad)
static_assert(kMetricsFragmentMax == kMetricsFragmentWidth - 1);

/** NUL-padded fixed-width string field; fatal when too long. */
void
fixedString(ByteWriter &writer, const std::string &value, size_t width,
            const char *field)
{
    if (value.size() >= width) {
        fatal("proto: field '", field, "' too long (", value.size(),
              " >= ", width, " bytes): ", value);
    }
    writer.bytes(value.data(), value.size());
    writer.zeros(width - value.size());
}

/** A zeroed packet with the 8-byte header written. */
ByteWriter
startPacket(Packet &packet, MessageType type)
{
    packet.fill(0);
    ByteWriter writer(packet.data(), packet.size());
    writer.u32(kMagic);
    writer.u8(kVersion);
    writer.u8(static_cast<uint8_t>(type));
    writer.u16(0); // reserved
    return writer;
}

/** A status byte; an unknown value fails the read. */
Status
readStatus(ByteReader &reader)
{
    uint8_t status = reader.u8();
    if (status > static_cast<uint8_t>(Status::InternalError))
        reader.fail("bad status");
    return static_cast<Status>(status);
}

/** Validate the header; the message type on success. */
std::optional<MessageType>
readHeader(ByteReader &reader)
{
    uint32_t magic = reader.u32();
    uint8_t version = reader.u8();
    uint8_t type = reader.u8();
    reader.u16(); // reserved
    if (!reader.ok() || magic != kMagic || version != kVersion)
        return std::nullopt;
    return static_cast<MessageType>(type);
}

/** @p msg, unless a read behind it failed. */
template <typename M>
std::optional<Message>
whole(const ByteReader &reader, M &&msg)
{
    if (!reader.ok())
        return std::nullopt;
    return std::optional<Message>(std::in_place, std::forward<M>(msg));
}

} // namespace

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok:               return "ok";
      case Status::UnknownMachine:   return "unknown machine";
      case Status::UnknownComponent: return "unknown component";
      case Status::BadCommand:       return "bad command";
      case Status::InternalError:    return "internal error";
    }
    return "?";
}

Packet
encode(const UtilizationUpdate &msg)
{
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::UtilizationUpdate);
    fixedString(writer, msg.machine, kNameWidth, "machine");
    fixedString(writer, msg.component, kNameWidth, "component");
    writer.f64(msg.utilization);
    writer.u64(msg.sequence);
    writer.u32(msg.backlog);
    writer.u8(msg.substituted);
    return packet;
}

Packet
encode(const SensorRequest &msg)
{
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::SensorRequest);
    writer.u32(msg.requestId);
    fixedString(writer, msg.machine, kNameWidth, "machine");
    fixedString(writer, msg.component, kNameWidth, "component");
    return packet;
}

Packet
encode(const SensorReply &msg)
{
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::SensorReply);
    writer.u32(msg.requestId);
    writer.u8(static_cast<uint8_t>(msg.status));
    writer.u8(0);
    writer.u16(0);
    writer.f64(msg.temperature);
    return packet;
}

Packet
encode(const FiddleRequest &msg)
{
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::FiddleRequest);
    writer.u32(msg.requestId);
    fixedString(writer, msg.commandLine, kFiddleRequestWidth, "command");
    return packet;
}

Packet
encode(const FiddleReply &msg)
{
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::FiddleReply);
    writer.u32(msg.requestId);
    writer.u8(static_cast<uint8_t>(msg.status));
    fixedString(writer, msg.message, kFiddleReplyWidth, "message");
    return packet;
}

bool
multiReadFits(const std::vector<std::string> &components)
{
    if (components.empty() ||
        components.size() > kMaxMultiReadComponents)
        return false;
    size_t packed = 0;
    for (const std::string &component : components) {
        if (component.empty() || component.size() >= kNameWidth)
            return false;
        packed += 1 + component.size();
    }
    return packed <= kMultiReadNameBudget;
}

Packet
encode(const MultiReadRequest &msg)
{
    if (!multiReadFits(msg.components)) {
        fatal("proto: MultiReadRequest with ", msg.components.size(),
              " components does not fit one datagram");
    }
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::MultiReadRequest);
    writer.u32(msg.requestId);
    fixedString(writer, msg.machine, kNameWidth, "machine");
    writer.u8(static_cast<uint8_t>(msg.components.size()));
    for (const std::string &component : msg.components)
        writer.string8(component); // multiReadFits checked each length
    return packet;
}

Packet
encode(const MultiReadReply &msg)
{
    if (msg.entries.size() > kMaxMultiReadComponents) {
        fatal("proto: MultiReadReply with ", msg.entries.size(),
              " entries does not fit one datagram");
    }
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::MultiReadReply);
    writer.u32(msg.requestId);
    writer.u8(static_cast<uint8_t>(msg.status));
    writer.u8(static_cast<uint8_t>(msg.entries.size()));
    for (const MultiReadEntry &entry : msg.entries) {
        writer.u8(static_cast<uint8_t>(entry.status));
        writer.f64(entry.temperature);
    }
    return packet;
}

Packet
encode(const MetricsRequest &msg)
{
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::MetricsRequest);
    writer.u32(msg.requestId);
    writer.u32(msg.offset);
    return packet;
}

Packet
encode(const MetricsReply &msg)
{
    Packet packet;
    ByteWriter writer = startPacket(packet, MessageType::MetricsReply);
    writer.u32(msg.requestId);
    writer.u8(static_cast<uint8_t>(msg.status));
    writer.u32(msg.nextOffset);
    fixedString(writer, msg.fragment, kMetricsFragmentWidth, "fragment");
    return packet;
}

std::optional<Message>
decode(const Packet &packet)
{
    return decode(packet.data(), packet.size());
}

std::optional<Message>
decode(const uint8_t *data, size_t length)
{
    if (length != kMessageSize)
        return std::nullopt;
    ByteReader reader(data, length);
    std::optional<MessageType> type = readHeader(reader);
    if (!type)
        return std::nullopt;
    // Every field reads through the bounds- and finiteness-checked
    // reader; a message decodes only when all of them did.
    switch (*type) {
      case MessageType::UtilizationUpdate: {
        UtilizationUpdate msg;
        msg.machine = reader.fixedString(kNameWidth);
        msg.component = reader.fixedString(kNameWidth);
        msg.utilization = reader.f64();
        msg.sequence = reader.u64();
        msg.backlog = reader.u32();
        msg.substituted = reader.u8();
        if (msg.machine.empty() || msg.component.empty())
            return std::nullopt;
        return whole(reader, std::move(msg));
      }
      case MessageType::SensorRequest: {
        SensorRequest msg;
        msg.requestId = reader.u32();
        msg.machine = reader.fixedString(kNameWidth);
        msg.component = reader.fixedString(kNameWidth);
        if (msg.machine.empty() || msg.component.empty())
            return std::nullopt;
        return whole(reader, std::move(msg));
      }
      case MessageType::SensorReply: {
        SensorReply msg;
        msg.requestId = reader.u32();
        msg.status = readStatus(reader);
        reader.bytes(3); // padding
        msg.temperature = reader.f64();
        return whole(reader, std::move(msg));
      }
      case MessageType::FiddleRequest: {
        FiddleRequest msg;
        msg.requestId = reader.u32();
        msg.commandLine = reader.fixedString(kFiddleRequestWidth);
        if (msg.commandLine.empty())
            return std::nullopt;
        return whole(reader, std::move(msg));
      }
      case MessageType::FiddleReply: {
        FiddleReply msg;
        msg.requestId = reader.u32();
        msg.status = readStatus(reader);
        msg.message = reader.fixedString(kFiddleReplyWidth);
        return whole(reader, std::move(msg));
      }
      case MessageType::MultiReadRequest: {
        MultiReadRequest msg;
        msg.requestId = reader.u32();
        msg.machine = reader.fixedString(kNameWidth);
        if (msg.machine.empty())
            return std::nullopt;
        uint8_t count = reader.u8();
        if (count == 0 || count > kMaxMultiReadComponents)
            return std::nullopt;
        msg.components.reserve(count);
        for (uint8_t i = 0; i < count && reader.ok(); ++i) {
            std::string component = reader.string8(kNameWidth - 1);
            if (component.empty())
                return std::nullopt;
            msg.components.push_back(std::move(component));
        }
        return whole(reader, std::move(msg));
      }
      case MessageType::MultiReadReply: {
        MultiReadReply msg;
        msg.requestId = reader.u32();
        msg.status = readStatus(reader);
        uint8_t count = reader.u8();
        if (count > kMaxMultiReadComponents)
            return std::nullopt;
        msg.entries.reserve(count);
        for (uint8_t i = 0; i < count && reader.ok(); ++i) {
            MultiReadEntry entry;
            entry.status = readStatus(reader);
            entry.temperature = reader.f64();
            msg.entries.push_back(entry);
        }
        return whole(reader, std::move(msg));
      }
      case MessageType::MetricsRequest: {
        MetricsRequest msg;
        msg.requestId = reader.u32();
        msg.offset = reader.u32();
        return whole(reader, std::move(msg));
      }
      case MessageType::MetricsReply: {
        MetricsReply msg;
        msg.requestId = reader.u32();
        msg.status = readStatus(reader);
        msg.nextOffset = reader.u32();
        msg.fragment = reader.fixedString(kMetricsFragmentWidth);
        return whole(reader, std::move(msg));
      }
      default:
        return std::nullopt;
    }
}

std::optional<uint32_t>
requestId(const Message &message)
{
    if (const auto *msg = std::get_if<SensorRequest>(&message))
        return msg->requestId;
    if (const auto *msg = std::get_if<SensorReply>(&message))
        return msg->requestId;
    if (const auto *msg = std::get_if<FiddleRequest>(&message))
        return msg->requestId;
    if (const auto *msg = std::get_if<FiddleReply>(&message))
        return msg->requestId;
    if (const auto *msg = std::get_if<MultiReadRequest>(&message))
        return msg->requestId;
    if (const auto *msg = std::get_if<MultiReadReply>(&message))
        return msg->requestId;
    if (const auto *msg = std::get_if<MetricsRequest>(&message))
        return msg->requestId;
    if (const auto *msg = std::get_if<MetricsReply>(&message))
        return msg->requestId;
    return std::nullopt;
}

std::optional<uint32_t>
peekRequestId(const Packet &packet)
{
    ByteReader reader(packet.data(), packet.size());
    std::optional<MessageType> type = readHeader(reader);
    if (!type)
        return std::nullopt;
    switch (*type) {
      case MessageType::SensorRequest:
      case MessageType::SensorReply:
      case MessageType::FiddleRequest:
      case MessageType::FiddleReply:
      case MessageType::MultiReadRequest:
      case MessageType::MultiReadReply:
      case MessageType::MetricsRequest:
      case MessageType::MetricsReply:
        return reader.u32();
      default:
        return std::nullopt;
    }
}

} // namespace proto
} // namespace mercury
