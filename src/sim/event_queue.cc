#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mercury {
namespace sim {

EventId
EventQueue::schedule(SimTime when, Callback fn)
{
    if (!fn)
        MERCURY_PANIC("EventQueue::schedule: empty callback");
    uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    }
    uint64_t seq = nextSeq_++;
    heap_.push_back(Entry{when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++pending_;
    return seq + 1;
}

void
EventQueue::cancel(EventId id)
{
    // A fired event has left the heap, and a cancelled one has an
    // empty slot, so neither matches here: cancelling them is a no-op.
    auto it = std::find_if(heap_.begin(), heap_.end(), [id](const Entry &e) {
        return e.seq + 1 == id;
    });
    if (it == heap_.end() || !slots_[it->slot])
        return;
    slots_[it->slot] = nullptr;
    --pending_;
    prune();
}

void
EventQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    freeSlots_.push_back(heap_.back().slot);
    heap_.pop_back();
}

void
EventQueue::prune()
{
    while (!heap_.empty() && !slots_[heap_.front().slot])
        popTop();
}

std::pair<SimTime, EventQueue::Callback>
EventQueue::pop()
{
    if (heap_.empty())
        MERCURY_PANIC("EventQueue::pop on empty queue");
    Entry top = heap_.front();
    Callback fn = std::exchange(slots_[top.slot], nullptr);
    popTop();
    --pending_;
    prune();
    return {top.when, std::move(fn)};
}

} // namespace sim
} // namespace mercury
