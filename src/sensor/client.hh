/**
 * @file
 * C++ sensor client: typed reads of emulated sensors, plus a fiddle
 * round-trip helper (the fiddle CLI is a thin wrapper over this).
 */

#ifndef MERCURY_SENSOR_CLIENT_HH
#define MERCURY_SENSOR_CLIENT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sensor/transport.hh"

namespace mercury {
namespace sensor {

/**
 * Reads emulated temperatures for one machine through a Transport.
 * "The programmer can treat Mercury as a regular, local sensor
 * device" — this is the typed face of that interface.
 */
class SensorClient
{
  public:
    /**
     * @param transport how to reach the solver (owned)
     * @param machine which machine's sensors to read
     */
    SensorClient(std::unique_ptr<Transport> transport, std::string machine);

    /** Read one component's temperature [degC]; nullopt on failure. */
    std::optional<double> read(const std::string &component);

    /**
     * One component's answer, with the failure cause preserved.
     * Exactly one of three shapes: a value (status Ok), a daemon
     * verdict (status != Ok, noReply false), or silence (noReply
     * true — timeout or mismatched reply; status is meaningless).
     * The distinction matters to fault handling: UnknownComponent is
     * a configuration bug, a timeout is a dropout.
     */
    struct ReadOutcome
    {
        std::optional<double> value; //!< set iff status == Ok
        proto::Status status = proto::Status::InternalError;
        bool noReply = false; //!< no usable reply from the daemon
    };

    /** Read one component with the failure cause preserved. */
    ReadOutcome readDetailed(const std::string &component);

    /**
     * Read several components in one MultiReadRequest datagram per
     * chunk of kMaxMultiReadComponents. Results are positional;
     * nullopt marks the components that failed, including every
     * component of a chunk whose batch went unanswered.
     */
    std::vector<std::optional<double>>
    readMany(const std::vector<std::string> &components);

    /**
     * readMany with per-component failure causes. A batched reply
     * propagates each entry's own status distinctly — one unknown
     * component never taints its chunk-mates, and a machine-level
     * rejection stamps every component with that verdict rather than
     * an anonymous failure. An unanswered batch reports noReply for
     * each of its components, as an unanswered single read does.
     */
    std::vector<ReadOutcome>
    readManyDetailed(const std::vector<std::string> &components);

    /** Send a fiddle command line; returns (ok, diagnostic). */
    std::pair<bool, std::string> fiddle(const std::string &command_line);

    /**
     * Fetch the daemon's full metrics snapshot via the paginated
     * MetricsRequest RPC (`fiddle metrics` uses this). nullopt when
     * any page goes unanswered or comes back malformed.
     */
    std::optional<std::string> metricsText();

    const std::string &machine() const { return machine_; }

  private:
    std::unique_ptr<Transport> transport_;
    std::string machine_;
    uint32_t nextRequestId_ = 1;
};

} // namespace sensor
} // namespace mercury

#endif // MERCURY_SENSOR_CLIENT_HH
