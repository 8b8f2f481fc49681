#include "sim/simulator.hh"

#include "util/logging.hh"

namespace mercury {
namespace sim {

EventId
Simulator::at(SimTime when, Callback fn)
{
    if (when < now_)
        MERCURY_PANIC("Simulator::at: time ", when, " is before now ", now_);
    return queue_.schedule(when, std::move(fn));
}

EventId
Simulator::after(SimTime delay, Callback fn)
{
    if (delay < 0)
        MERCURY_PANIC("Simulator::after: negative delay ", delay);
    if (delay > kTimeNever - now_)
        MERCURY_PANIC("Simulator::after: delay ", delay, " from now ",
                      now_, " passes kTimeNever");
    return queue_.schedule(now_ + delay, std::move(fn));
}

EventId
Simulator::every(SimTime period, PeriodicFn fn, SimTime phase)
{
    if (period <= 0)
        MERCURY_PANIC("Simulator::every: non-positive period ", period);
    if (phase < 0)
        phase = period;
    if (phase > kTimeNever - now_)
        MERCURY_PANIC("Simulator::every: phase ", phase, " from now ",
                      now_, " passes kTimeNever");
    size_t index = chains_.size();
    chains_.push_back(Chain{std::move(fn), period, now_ + phase});
    arm(index);
    return kFirstChainId + index;
}

void
Simulator::arm(size_t index)
{
    // Two words: the closure fits std::function's local buffer, so
    // re-arming a chain allocates nothing.
    chains_[index].armed =
        queue_.schedule(chains_[index].next, [this, index] { fire(index); });
}

void
Simulator::fire(size_t index)
{
    Chain &chain = chains_[index]; // stays put if the body adds chains
    chain.armed = 0;
    bool keep = chain.fn();
    if (!keep || chain.stopped) {
        chain.stopped = true;
        chain.fn = nullptr;
        return;
    }
    chain.next += chain.period;
    arm(index);
}

void
Simulator::cancel(EventId id)
{
    if (id < kFirstChainId) {
        queue_.cancel(id);
        return;
    }
    size_t index = id - kFirstChainId;
    if (index >= chains_.size() || chains_[index].stopped)
        return;
    Chain &chain = chains_[index];
    chain.stopped = true;
    // Inside its own body the chain is not queued; fire() stops it
    // when the body returns (its closure cannot be destroyed here).
    if (chain.armed != 0) {
        queue_.cancel(chain.armed);
        chain.armed = 0;
        chain.fn = nullptr;
    }
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    auto [when, fn] = queue_.pop();
    now_ = when;
    ++eventsRun_;
    fn();
    return true;
}

void
Simulator::runUntil(SimTime deadline)
{
    stopRequested_ = false;
    while (!stopRequested_ && !queue_.empty() &&
           queue_.nextTime() <= deadline) {
        step();
    }
    // Only a finite deadline parks the clock: an idle clock at
    // kTimeNever would overflow the next after() or every().
    if (!stopRequested_ && deadline != kTimeNever && now_ < deadline)
        now_ = deadline;
}

void
Simulator::runToCompletion()
{
    stopRequested_ = false;
    while (!stopRequested_ && step()) {
    }
}

} // namespace sim
} // namespace mercury
