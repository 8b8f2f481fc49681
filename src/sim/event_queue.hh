/**
 * @file
 * The event queue at the heart of the discrete-event engine.
 *
 * Events at equal timestamps fire in insertion order (a monotonically
 * increasing sequence number breaks ties), which keeps multi-component
 * experiments deterministic.
 *
 * The queue allocates nothing in steady state. The binary heap holds
 * trivially copyable {when, seq, slot} entries; each callback lives in
 * a slot of a table whose freed slots are recycled through a free
 * list, so the heap never copies a callback and a popped callback is
 * moved out, not copied. An event's id is its sequence number + 1.
 *
 * Cancelling clears the event's slot; the cleared entry stays in the
 * heap until it reaches the top, where it is dropped and its slot
 * freed. The heap top is always a live event, so empty() and
 * nextTime() are plain reads. cancel() finds its entry by sequence
 * number, not by slot, so cancelling an already-cancelled or fired id
 * is a no-op, even after that event's slot has been reused.
 */

#ifndef MERCURY_SIM_EVENT_QUEUE_HH
#define MERCURY_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace mercury {
namespace sim {

/** Opaque handle used to cancel a scheduled event. */
using EventId = uint64_t;

/**
 * Time-ordered queue of callbacks.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p fn at absolute time @p when. Returns a cancel handle. */
    EventId schedule(SimTime when, Callback fn);

    /**
     * Cancel a pending event; cancelling a fired or cancelled event is
     * a no-op. Scans the pending events: cancelling is rare, so no
     * per-event bookkeeping is spent on it.
     */
    void cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of live (non-cancelled) pending events. */
    size_t size() const { return pending_; }

    /** Timestamp of the earliest live event; kTimeNever when empty. */
    SimTime nextTime() const
    {
        return heap_.empty() ? kTimeNever : heap_.front().when;
    }

    /**
     * Pop and return the earliest live event. Must not be called when
     * empty(). The caller invokes the callback (the queue does not, so
     * that the simulator can update its clock first).
     */
    std::pair<SimTime, Callback> pop();

  private:
    struct Entry
    {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Remove the heap top and free its slot. */
    void popTop();

    /** Drop cancelled entries from the top of the heap. */
    void prune();

    std::vector<Entry> heap_;
    std::vector<Callback> slots_; //!< empty callback = cancelled or free
    std::vector<uint32_t> freeSlots_;
    uint64_t nextSeq_ = 0;
    size_t pending_ = 0;
};

} // namespace sim
} // namespace mercury

#endif // MERCURY_SIM_EVENT_QUEUE_HH
