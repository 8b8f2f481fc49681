#include "proto/wal_codec.hh"

#include "util/bytes.hh"
#include "util/strings.hh"

namespace mercury {
namespace proto {

namespace {

/** Payload type tags; match MessageType values for log readability. */
constexpr uint8_t kTagUtilization = 1;
constexpr uint8_t kTagFiddle = 4;

constexpr size_t kMaxNameBytes = 31;
constexpr size_t kMaxLineBytes = 115;

} // namespace

bool
fiddleLineMutates(const std::string &line)
{
    std::string trimmed = trim(line);
    // Tolerate the "fiddle "-prefixed variants the service accepts.
    if (startsWith(trimmed, "fiddle "))
        trimmed = trim(trimmed.substr(7));
    if (trimmed.empty())
        return false;
    if (trimmed == "stats" || trimmed == "replica" ||
        trimmed == "checkpoint")
        return false;
    if (trimmed == "guard" || startsWith(trimmed, "guard "))
        return false;
    return true;
}

std::vector<uint8_t>
encodeWalMutation(const Message &message)
{
    if (const auto *update = std::get_if<UtilizationUpdate>(&message)) {
        std::vector<uint8_t> out(1 + 1 + update->machine.size() + 1 +
                                 update->component.size() + 8 + 8 + 4 + 1);
        ByteWriter w(out.data(), out.size());
        w.u8(kTagUtilization);
        w.string8(update->machine);
        w.string8(update->component);
        w.f64(update->utilization);
        w.u64(update->sequence);
        w.u32(update->backlog);
        w.u8(update->substituted);
        return out;
    }
    if (const auto *request = std::get_if<FiddleRequest>(&message)) {
        if (!fiddleLineMutates(request->commandLine))
            return {};
        std::vector<uint8_t> out(1 + 4 + 1 + request->commandLine.size());
        ByteWriter w(out.data(), out.size());
        w.u8(kTagFiddle);
        w.u32(request->requestId);
        w.string8(request->commandLine);
        return out;
    }
    // Read RPCs and reply types: nothing to log.
    return {};
}

std::optional<Message>
decodeWalMutation(const uint8_t *data, size_t size)
{
    ByteReader in(data, size);
    uint8_t tag = in.u8();
    if (tag == kTagUtilization) {
        UtilizationUpdate update;
        update.machine = in.string8(kMaxNameBytes);
        update.component = in.string8(kMaxNameBytes);
        update.utilization = in.f64();
        update.sequence = in.u64();
        update.backlog = in.u32();
        update.substituted = in.u8();
        if (!in.ok() || in.remaining() != 0 || update.machine.empty())
            return std::nullopt;
        return Message{std::move(update)};
    }
    if (tag == kTagFiddle) {
        FiddleRequest request;
        request.requestId = in.u32();
        request.commandLine = in.string8(kMaxLineBytes);
        if (!in.ok() || in.remaining() != 0)
            return std::nullopt;
        return Message{std::move(request)};
    }
    return std::nullopt;
}

} // namespace proto
} // namespace mercury
