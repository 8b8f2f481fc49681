/**
 * @file
 * Request-level model of one Apache server machine.
 *
 * The CPU and the disk are each a FIFO queue served at unit rate (the
 * paper's servers are single-CPU Pentium IIIs with one SCSI disk): a
 * request occupies the CPU for its cpuSeconds, then the disk for its
 * diskSeconds. Utilizations reported to monitord are exact busy-time
 * fractions over the sampling interval — precisely what /proc would
 * have shown. Requests whose projected queueing delay exceeds the
 * configured patience are dropped (this is how the "traditional"
 * policy's 14% loss materialises when servers are powered off).
 *
 * Machines also have a power state machine (On/Booting/Draining/Off)
 * with a realistic boot delay, used by Freon-EC and the traditional
 * red-line policy.
 */

#ifndef MERCURY_CLUSTER_SERVER_MACHINE_HH
#define MERCURY_CLUSTER_SERVER_MACHINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/request.hh"
#include "sim/simulator.hh"
#include "util/stats.hh"

namespace mercury {
namespace cluster {

/** Server tuning knobs. */
struct ServerConfig
{
    /** Hard cap on concurrent requests (Apache MaxClients-like). */
    int maxConnections = 512;

    /** Drop a request whose queueing delay would exceed this [s]. */
    double maxQueueSeconds = 8.0;

    /** Boot latency: power-on to accepting connections [s]. Turning
     *  on a server "takes quite some time" (Section 4.2). */
    double bootSeconds = 90.0;
};

/** Power states. */
enum class PowerState {
    On,
    Booting,
    Draining, //!< refusing new work, finishing current connections
    Off
};

/**
 * One server machine.
 */
class ServerMachine
{
  public:
    /** Called when a request reaches a terminal state. */
    using CompletionFn =
        std::function<void(const ServerMachine &, const Request &,
                           RequestOutcome)>;

    ServerMachine(sim::Simulator &simulator, std::string name,
                  ServerConfig config = {});

    const std::string &name() const { return name_; }

    /** Install the completion callback (the load balancer's). */
    void setCompletionFn(CompletionFn fn) { completion_ = std::move(fn); }

    /** @name Request path */
    /// @{

    /**
     * Accept a request. Returns false (and reports the outcome via the
     * callback) when the machine is not On, its connection limit is
     * reached, or its queues are hopelessly long.
     */
    bool offer(const Request &request);

    /** Requests currently inside the server (queued or in service). */
    int activeConnections() const { return active_; }

    /// @}
    /** @name Power management */
    /// @{

    PowerState powerState() const { return state_; }
    bool isOn() const { return state_ == PowerState::On; }
    bool isOff() const { return state_ == PowerState::Off; }

    /**
     * Begin shutdown: stop accepting, let current connections finish,
     * then power off (LVS quiescence, Section 4.2). Immediate when
     * idle. No-op unless On.
     */
    void beginShutdown();

    /** Power on; ready after bootSeconds. No-op unless Off. */
    void powerOn();

    /** Called on power-state transitions (Freon-EC bookkeeping). */
    using StateFn = std::function<void(const ServerMachine &, PowerState)>;
    void setStateFn(StateFn fn) { stateFn_ = std::move(fn); }

    /// @}
    /** @name CPU speed (DVFS) */
    /// @{

    /**
     * Relative CPU speed in (0, 1]; incoming requests' CPU demand is
     * inflated by 1/speed (already-queued work is unaffected, like a
     * frequency change that applies from the next dispatch).
     */
    void setCpuSpeed(double relative);
    double cpuSpeed() const { return cpuSpeed_; }

    /// @}
    /** @name Utilization accounting (monitord's view) */
    /// @{

    /**
     * CPU and disk utilization since the previous call (busy-time
     * fraction in [0, 1]). First call covers time from construction.
     */
    struct UtilizationSample
    {
        double cpu = 0.0;
        double disk = 0.0;
    };
    UtilizationSample sampleUtilization();

    /// @}
    /** @name Statistics */
    /// @{
    uint64_t served() const { return served_; }
    uint64_t dropped() const { return dropped_; }

    /** Completion latency (completion - arrival) summary [s]. */
    const RunningStats &latencyStats() const { return latencyStats_; }

    /** Latency distribution [s], 10 ms bins up to 20 s. */
    const Histogram &latencyHistogram() const { return latencyHistogram_; }
    /// @}

  private:
    void finishRequest(uint32_t slot);
    void enterState(PowerState next);

    /** Busy seconds accumulated up to `now` for one resource. */
    double busyUpTo(double free_at, double busy_accum) const;

    sim::Simulator &simulator_;
    std::string name_;
    ServerConfig config_;
    CompletionFn completion_;
    StateFn stateFn_;

    PowerState state_ = PowerState::On;
    double cpuSpeed_ = 1.0;
    int active_ = 0;
    uint64_t served_ = 0;
    uint64_t dropped_ = 0;
    RunningStats latencyStats_;
    Histogram latencyHistogram_{0.0, 20.0, 2000};

    // Single-server FIFO queues: the next instant each resource frees.
    double cpuFreeAt_ = 0.0;
    double diskFreeAt_ = 0.0;

    // Busy-time integration for utilization sampling. Busy seconds
    // are accounted when work is *scheduled* (the interval is known
    // then); busyUpTo() subtracts the not-yet-elapsed tail.
    double cpuBusyBefore_ = 0.0;  // total scheduled CPU busy seconds
    double diskBusyBefore_ = 0.0; // total scheduled disk busy seconds
    double lastCpuBusy_ = 0.0;    // busyUpTo at the previous sample
    double lastDiskBusy_ = 0.0;
    double lastSampleTime_ = 0.0;

    // Requests in service, in slots recycled through a free list: the
    // completion event captures only {this, slot}, which fits
    // std::function's local buffer, so a request allocates nothing.
    std::vector<Request> inFlight_;
    std::vector<uint32_t> freeSlots_;
};

} // namespace cluster
} // namespace mercury

#endif // MERCURY_CLUSTER_SERVER_MACHINE_HH
