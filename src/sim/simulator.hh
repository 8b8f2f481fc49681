/**
 * @file
 * The discrete-event simulator driving all repeatable experiments.
 *
 * The paper runs Mercury against a *live* software stack in wall-clock
 * time; this reproduction additionally drives the identical solver and
 * policy code from a simulated clock, which preserves Mercury's
 * headline property (repeatability) while letting a 14 000-second
 * calibration run finish in milliseconds. Code that needs "now" takes
 * it from the Simulator, never from the OS.
 */

#ifndef MERCURY_SIM_SIMULATOR_HH
#define MERCURY_SIM_SIMULATOR_HH

#include <deque>
#include <functional>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace mercury {
namespace sim {

/**
 * Event loop with a simulated clock and periodic-task support.
 */
class Simulator
{
  public:
    using Callback = std::function<void()>;
    /** Periodic body; return false to stop repeating. */
    using PeriodicFn = std::function<bool()>;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Current simulated time in fractional seconds. */
    double nowSeconds() const { return toSeconds(now_); }

    /** Schedule at an absolute time (must not be in the past). */
    EventId at(SimTime when, Callback fn);

    /** Schedule after a relative delay (>= 0; now + delay must not
     *  pass kTimeNever). */
    EventId after(SimTime delay, Callback fn);

    /**
     * Schedule @p fn every @p period. The first firing is at
     * now + @p phase (default: one full period, matching how the
     * suite's daemons wake up *after* their first interval), which
     * must not pass kTimeNever. The returned id cancels the *chain*
     * (valid across re-arms, and from inside the chain's own body).
     */
    EventId every(SimTime period, PeriodicFn fn, SimTime phase = -1);

    /** Cancel an event or a periodic chain. */
    void cancel(EventId id);

    /**
     * Run until the queue drains or the given time is passed. A finite
     * @p deadline then becomes the clock; kTimeNever leaves the clock
     * at the last event.
     */
    void runUntil(SimTime deadline);

    /** Run until the queue drains completely. */
    void runToCompletion();

    /**
     * Ask the current runUntil()/runToCompletion() to return after the
     * event in flight. Safe from a signal handler's deferred path (an
     * event or periodic that polls a sig_atomic_t); the flag clears
     * when the next run starts.
     */
    void requestStop() { stopRequested_ = true; }
    bool stopRequested() const { return stopRequested_; }

    /** Process exactly one event if any is pending; returns false if idle. */
    bool step();

    /** Number of events executed so far. */
    uint64_t eventsRun() const { return eventsRun_; }

    /**
     * Pending event count: exact, cancelled events excluded. An active
     * periodic chain counts as its one armed firing.
     */
    size_t pendingEvents() const { return queue_.size(); }

  private:
    /** One periodic chain; its id is kFirstChainId + its index. */
    struct Chain
    {
        PeriodicFn fn;       //!< empty once the chain has stopped
        SimTime period = 0;
        SimTime next = 0;    //!< time of the armed firing
        EventId armed = 0;   //!< the queued firing; 0 while the body runs
        bool stopped = false;
    };

    /** Chain ids are disjoint from EventQueue ids. */
    static constexpr EventId kFirstChainId = 1ULL << 62;

    EventQueue queue_;
    SimTime now_ = 0;
    uint64_t eventsRun_ = 0;
    bool stopRequested_ = false;

    // A deque keeps every chain in place while a body starts another
    // chain, so the queued firing only needs {this, index}.
    std::deque<Chain> chains_;

    void arm(size_t index);
    void fire(size_t index);
};

} // namespace sim
} // namespace mercury

#endif // MERCURY_SIM_SIMULATOR_HH
