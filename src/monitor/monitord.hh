/**
 * @file
 * monitord: periodically samples a machine's component utilizations
 * and ships them to the solver as 128-byte UtilizationUpdate messages
 * (paper Section 2.3). The update frequency is a tunable set to one
 * second by default, like the paper's.
 *
 * The sink is pluggable: an UpdateBatcher's UDP sink for the real
 * daemon, an in-process sink straight into a SolverService for
 * simulated clusters and tests.
 */

#ifndef MERCURY_MONITOR_MONITORD_HH
#define MERCURY_MONITOR_MONITORD_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "guard/sensor_guard.hh"
#include "monitor/source.hh"
#include "net/faults.hh"
#include "net/udp.hh"
#include "proto/messages.hh"

namespace mercury {

namespace proto {
class SolverService;
} // namespace proto

namespace monitor {

/**
 * The monitoring daemon for one machine.
 */
class Monitord
{
  public:
    /** Delivers one encoded update to the solver. */
    using Sink = std::function<void(const proto::UtilizationUpdate &)>;

    /**
     * @param machine name reported in every update
     * @param source utilization source (owned)
     * @param sink update delivery (UDP or in-process)
     */
    Monitord(std::string machine, std::unique_ptr<UtilizationSource> source,
             Sink sink);

    /** Sample once and ship every reading. Call once per interval. */
    void tick(double now_seconds);

    /**
     * Route every sampled reading through a sensor trust layer
     * (borrowed; use GuardConfig::utilizationProfile() for the
     * bounds). Implausible samples ship their substitute with the
     * update's `substituted` trust tag set, so the solver never
     * integrates a wedged utilization counter as real heat — and can
     * still see that it happened.
     */
    void setGuard(guard::SensorGuard *guard) { guard_ = guard; }

    uint64_t updatesSent() const { return updatesSent_; }

    /** Updates shipped with a guard-substituted value. */
    uint64_t updatesSubstituted() const { return updatesSubstituted_; }

    const std::string &machine() const { return machine_; }

    /** @name Outage backlog
     * While the solver is unreachable, thermal integration would
     * silently lose its heat input: the solver keeps stepping with the
     * last utilization it saw. With a backlog enabled, samples taken
     * while offline are queued (bounded, oldest dropped) and shipped
     * on reconnect. Sequences are assigned at sampling time either
     * way, so the solver's loss accounting stays truthful: an
     * overflowed or hold-last-skipped sample reads as a lost packet,
     * never as a phantom delivery.
     */
    /// @{

    /** What to ship from the backlog when the solver comes back. */
    enum class GapFillPolicy {
        /** Ship every queued sample in order — the solver applies the
         *  whole utilization history (best thermal fidelity). */
        Replay,
        /** Ship only the newest sample per component; skipped
         *  sequences surface as losses (cheapest catch-up). */
        HoldLast,
    };

    struct BacklogConfig
    {
        size_t capacity = 600; //!< queued samples kept (per daemon)
        GapFillPolicy policy = GapFillPolicy::Replay;
    };

    /** Enable queue-while-offline with the given bound and policy. */
    void enableBacklog(BacklogConfig config);

    /**
     * Tell the daemon whether the solver is reachable (the app's
     * probe loop decides). Going online flushes the backlog through
     * the sink, per policy. Daemons start online.
     */
    void setOnline(bool online);
    bool online() const { return online_; }

    /** Samples currently queued. */
    uint64_t backlogDepth() const { return backlog_.size(); }

    /** Samples never shipped: capacity overflow + hold-last skips. */
    uint64_t backlogDropped() const { return backlogDropped_; }

    /** Samples shipped from the backlog on reconnects. */
    uint64_t backlogReplayed() const { return backlogReplayed_; }

    /// @}

    /** Sink that feeds a SolverService directly (same packet bytes). */
    static Sink serviceSink(proto::SolverService &service);

    /**
     * Wrap any sink in seeded fault injection: updates are dropped,
     * duplicated, or reordered (held back one delivery) per the
     * injector's plans. The injector is shared so tests can compare
     * its exact counters against the solver's detected loss.
     */
    static Sink faultySink(Sink inner,
                           std::shared_ptr<net::FaultInjector> injector);

  private:
    /** One sample queued during an outage. */
    struct QueuedSample
    {
        proto::UtilizationUpdate update;
        double sampledAtSeconds = 0.0;
    };

    void flushBacklog();

    std::string machine_;
    std::unique_ptr<UtilizationSource> source_;
    Sink sink_;
    guard::SensorGuard *guard_ = nullptr;
    uint64_t updatesSent_ = 0;
    uint64_t updatesSubstituted_ = 0;
    uint64_t sequence_ = 0;

    bool backlogEnabled_ = false;
    BacklogConfig backlogConfig_;
    bool online_ = true;
    std::deque<QueuedSample> backlog_;
    uint64_t backlogDropped_ = 0;
    uint64_t backlogReplayed_ = 0;
};

/**
 * Ships a Monitord's updates as 128-byte datagrams to the solver,
 * coalesced into sendMany batches.
 *
 * A /proc machine reports a handful of components per tick and an
 * outage replay ships hundreds of queued samples back-to-back; sending
 * each as its own sendto() pays one syscall per update. Feeding a
 * Monitord through sink() instead queues the encoded packets here, and
 * flush() ships the whole tick in kMaxBatch-sized sendmmsg calls.
 *
 * The batcher must outlive any sink() it handed out. flush() must be
 * called after every tick()/setOnline() (a full queue also flushes
 * itself, so nothing is ever dropped between flushes).
 */
class UpdateBatcher
{
  public:
    UpdateBatcher(std::shared_ptr<net::UdpSocket> socket,
                  net::Endpoint solver);

    /** A Monitord sink that queues updates on this batcher. */
    Monitord::Sink sink();

    /** Ship everything queued (no-op when empty). */
    void flush();

    uint64_t queued() const { return queued_.size(); }
    uint64_t datagramsSent() const { return datagramsSent_; }
    uint64_t sendErrors() const { return sendErrors_; }

  private:
    void push(const proto::UtilizationUpdate &update);

    std::shared_ptr<net::UdpSocket> socket_;
    net::Endpoint solver_;
    std::vector<proto::Packet> queued_;
    uint64_t datagramsSent_ = 0;
    uint64_t sendErrors_ = 0;
    bool warnedSendFailure_ = false;
};

} // namespace monitor
} // namespace mercury

#endif // MERCURY_MONITOR_MONITORD_HH
