#include "sensor/client.hh"

#include "util/logging.hh"

namespace mercury {
namespace sensor {

SensorClient::SensorClient(std::unique_ptr<Transport> transport,
                           std::string machine)
    : transport_(std::move(transport)), machine_(std::move(machine))
{
    if (!transport_)
        MERCURY_PANIC("SensorClient: null transport");
}

std::optional<double>
SensorClient::read(const std::string &component)
{
    return readDetailed(component).value;
}

SensorClient::ReadOutcome
SensorClient::readDetailed(const std::string &component)
{
    proto::SensorRequest request;
    request.requestId = nextRequestId_++;
    request.machine = machine_;
    request.component = component;

    ReadOutcome out;
    auto reply = transport_->roundTrip(proto::encode(request));
    const proto::SensorReply *sensor_reply =
        reply ? std::get_if<proto::SensorReply>(&*reply) : nullptr;
    if (!sensor_reply || sensor_reply->requestId != request.requestId) {
        out.noReply = true;
        return out;
    }
    out.status = sensor_reply->status;
    if (out.status == proto::Status::Ok)
        out.value = sensor_reply->temperature;
    return out;
}

std::vector<std::optional<double>>
SensorClient::readMany(const std::vector<std::string> &components)
{
    std::vector<ReadOutcome> detailed = readManyDetailed(components);
    std::vector<std::optional<double>> out(detailed.size());
    for (size_t i = 0; i < detailed.size(); ++i)
        out[i] = detailed[i].value;
    return out;
}

std::vector<SensorClient::ReadOutcome>
SensorClient::readManyDetailed(const std::vector<std::string> &components)
{
    std::vector<ReadOutcome> out(components.size());
    size_t begin = 0;
    while (begin < components.size()) {
        // Grow the chunk greedily while the packed request still fits.
        std::vector<std::string> chunk;
        size_t end = begin;
        while (end < components.size()) {
            chunk.push_back(components[end]);
            if (!proto::multiReadFits(chunk)) {
                chunk.pop_back();
                break;
            }
            ++end;
        }
        if (chunk.empty()) {
            // This one name alone does not fit a request (too long for
            // the wire); the per-sensor path shares the same limit and
            // will report the failure.
            out[begin] = readDetailed(components[begin]);
            ++begin;
            continue;
        }
        proto::MultiReadRequest request;
        request.requestId = nextRequestId_++;
        request.machine = machine_;
        request.components = chunk;
        auto reply = transport_->roundTrip(proto::encode(request));
        const proto::MultiReadReply *multi =
            reply ? std::get_if<proto::MultiReadReply>(&*reply) : nullptr;
        if (!multi || multi->requestId != request.requestId) {
            // Silence, exactly as an unanswered single read reports it;
            // the next poll batches again.
            for (size_t i = begin; i < end; ++i)
                out[i].noReply = true;
        } else if (multi->status != proto::Status::Ok) {
            // Machine-level rejection: every component carries the
            // daemon's verdict, not an anonymous failure.
            for (size_t i = begin; i < end; ++i)
                out[i].status = multi->status;
        } else if (multi->entries.size() != chunk.size()) {
            // Malformed reply (entry count disagrees): InternalError,
            // distinct from both a timeout and a daemon verdict.
            for (size_t i = begin; i < end; ++i)
                out[i].status = proto::Status::InternalError;
        } else {
            for (size_t i = 0; i < chunk.size(); ++i) {
                out[begin + i].status = multi->entries[i].status;
                if (multi->entries[i].status == proto::Status::Ok)
                    out[begin + i].value = multi->entries[i].temperature;
            }
        }
        begin = end;
    }
    return out;
}

std::optional<std::string>
SensorClient::metricsText()
{
    std::string text;
    uint32_t offset = 0;
    // 512 fragments bound the loop (and the snapshot) at ~56 KB even
    // against a hostile/buggy server that never sends nextOffset 0.
    for (int page = 0; page < 512; ++page) {
        proto::MetricsRequest request;
        request.requestId = nextRequestId_++;
        request.offset = offset;
        auto reply = transport_->roundTrip(proto::encode(request));
        if (!reply)
            return std::nullopt;
        const auto *metrics = std::get_if<proto::MetricsReply>(&*reply);
        if (!metrics || metrics->requestId != request.requestId ||
            metrics->status != proto::Status::Ok) {
            return std::nullopt;
        }
        text += metrics->fragment;
        if (metrics->nextOffset == 0)
            return text;
        if (metrics->nextOffset <= offset)
            return std::nullopt; // non-advancing server: bail out
        offset = metrics->nextOffset;
    }
    return std::nullopt;
}

std::pair<bool, std::string>
SensorClient::fiddle(const std::string &command_line)
{
    proto::FiddleRequest request;
    request.requestId = nextRequestId_++;
    request.commandLine = command_line;

    auto reply = transport_->roundTrip(proto::encode(request));
    if (!reply)
        return {false, "no reply from solver"};
    const auto *fiddle_reply = std::get_if<proto::FiddleReply>(&*reply);
    if (!fiddle_reply || fiddle_reply->requestId != request.requestId)
        return {false, "mismatched reply from solver"};
    return {fiddle_reply->status == proto::Status::Ok,
            fiddle_reply->message};
}

} // namespace sensor
} // namespace mercury
