/**
 * @file
 * Unit tests for the discrete-event engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace mercury {
namespace sim {
namespace {

TEST(EventQueue, OrdersByTime)
{
    EventQueue queue;
    std::vector<int> fired;
    queue.schedule(30, [&] { fired.push_back(3); });
    queue.schedule(10, [&] { fired.push_back(1); });
    queue.schedule(20, [&] { fired.push_back(2); });
    while (!queue.empty())
        queue.pop().second();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder)
{
    EventQueue queue;
    std::vector<int> fired;
    for (int i = 0; i < 5; ++i)
        queue.schedule(100, [&fired, i] { fired.push_back(i); });
    while (!queue.empty())
        queue.pop().second();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent)
{
    EventQueue queue;
    std::vector<int> fired;
    queue.schedule(1, [&] { fired.push_back(1); });
    EventId doomed = queue.schedule(2, [&] { fired.push_back(2); });
    queue.schedule(3, [&] { fired.push_back(3); });
    queue.cancel(doomed);
    EXPECT_EQ(queue.size(), 2u);
    while (!queue.empty())
        queue.pop().second();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue queue;
    EventId id = queue.schedule(1, [] {});
    queue.pop().second();
    queue.cancel(id); // must not underflow or corrupt
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextTime(), kTimeNever);
    queue.schedule(42, [] {});
    EXPECT_EQ(queue.nextTime(), 42);
}

TEST(EventQueue, MatchesOrderedMapReference)
{
    // Seeded random schedule/cancel/pop against a std::map keyed by
    // (time, insertion order). Times are drawn from a narrow window
    // so that ties are common.
    std::mt19937_64 rng(20061021);
    auto below = [&rng](uint64_t n) { return rng() % n; };

    EventQueue queue;
    std::map<std::pair<SimTime, uint64_t>, EventId> reference;
    std::unordered_map<EventId, std::pair<SimTime, uint64_t>> liveKey;
    std::vector<EventId> live;
    std::vector<EventId> cancelled;
    std::vector<EventId> fired;
    uint64_t nextToken = 0;
    uint64_t ranToken = 0;
    EventId maxIssued = 0;
    SimTime clock = 0;

    auto schedule = [&] {
        SimTime when = clock + static_cast<SimTime>(below(8));
        uint64_t token = nextToken++;
        EventId id =
            queue.schedule(when, [&ranToken, token] { ranToken = token; });
        reference.emplace(std::make_pair(when, token), id);
        liveKey.emplace(id, std::make_pair(when, token));
        live.push_back(id);
        maxIssued = std::max(maxIssued, id);
    };
    auto forget = [&](EventId id) {
        reference.erase(liveKey.at(id));
        liveKey.erase(id);
        live.erase(std::find(live.begin(), live.end(), id));
    };

    for (int op = 0; op < 100000; ++op) {
        uint64_t roll = below(100);
        if (roll < (reference.size() < 200 ? 50u : 30u)) {
            schedule();
        } else if (roll < 80) {
            if (reference.empty())
                continue;
            auto first = reference.begin();
            EventId id = first->second;
            uint64_t token = first->first.second;
            auto [when, fn] = queue.pop();
            ASSERT_EQ(when, first->first.first);
            fn();
            ASSERT_EQ(ranToken, token);
            clock = when;
            forget(id);
            fired.push_back(id);
            // Reuse the slot just freed, then cancel the fired id.
            if (below(4) == 0) {
                schedule();
                queue.cancel(id);
            }
        } else if (roll < 90) {
            if (live.empty())
                continue;
            EventId id = live[below(live.size())];
            queue.cancel(id);
            forget(id);
            cancelled.push_back(id);
        } else if (roll < 95) {
            if (!cancelled.empty())
                queue.cancel(cancelled[below(cancelled.size())]);
        } else if (roll < 99) {
            if (!fired.empty())
                queue.cancel(fired[below(fired.size())]);
        } else {
            queue.cancel(maxIssued + 1); // not issued yet
        }
        ASSERT_EQ(queue.size(), reference.size()) << "op " << op;
        ASSERT_EQ(queue.empty(), reference.empty()) << "op " << op;
        ASSERT_EQ(queue.nextTime(), reference.empty()
                                        ? kTimeNever
                                        : reference.begin()->first.first)
            << "op " << op;
    }
    EXPECT_GT(fired.size(), 10000u);
    EXPECT_GT(cancelled.size(), 5000u);
}

TEST(Simulator, ClockAdvancesToEventTime)
{
    Simulator simulator;
    SimTime seen = -1;
    simulator.at(seconds(5), [&] { seen = simulator.now(); });
    simulator.runToCompletion();
    EXPECT_EQ(seen, seconds(5));
    EXPECT_EQ(simulator.now(), seconds(5));
}

TEST(Simulator, AfterIsRelative)
{
    Simulator simulator;
    std::vector<double> times;
    simulator.at(seconds(10), [&] {
        simulator.after(seconds(5), [&] {
            times.push_back(simulator.nowSeconds());
        });
    });
    simulator.runToCompletion();
    ASSERT_EQ(times.size(), 1u);
    EXPECT_DOUBLE_EQ(times[0], 15.0);
}

TEST(Simulator, PeriodicFiresUntilStopped)
{
    Simulator simulator;
    int count = 0;
    simulator.every(seconds(1), [&] {
        ++count;
        return count < 5;
    });
    simulator.runToCompletion();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(simulator.now(), seconds(5));
}

TEST(Simulator, PeriodicPhaseOffset)
{
    Simulator simulator;
    std::vector<double> times;
    auto id = simulator.every(
        seconds(10),
        [&] {
            times.push_back(simulator.nowSeconds());
            return true;
        },
        seconds(3));
    simulator.runUntil(seconds(35));
    simulator.cancel(id);
    EXPECT_EQ(times, (std::vector<double>{3, 13, 23, 33}));
}

TEST(Simulator, CancelPeriodicChainBetweenFirings)
{
    Simulator simulator;
    int count = 0;
    EventId chain = simulator.every(seconds(1), [&] {
        ++count;
        return true;
    });
    simulator.runUntil(seconds(3));
    simulator.cancel(chain);
    simulator.runUntil(seconds(100));
    EXPECT_EQ(count, 3);
}

TEST(Simulator, ChainCancelledInsideItsOwnBodyStops)
{
    Simulator simulator;
    int count = 0;
    EventId chain = 0;
    chain = simulator.every(seconds(1), [&] {
        if (++count == 2)
            simulator.cancel(chain);
        return true;
    });
    simulator.runUntil(seconds(10));
    EXPECT_EQ(count, 2);
    EXPECT_EQ(simulator.pendingEvents(), 0u);
}

TEST(Simulator, PeriodicBodyMayStartMoreChains)
{
    // Enough new chains from inside a body to move a growing table.
    Simulator simulator;
    int outer = 0;
    int inner = 0;
    simulator.every(seconds(1), [&] {
        if (++outer == 1) {
            for (int i = 0; i < 100; ++i) {
                simulator.every(seconds(1), [&] {
                    ++inner;
                    return true;
                });
            }
        }
        return outer < 3;
    });
    simulator.runUntil(seconds(3));
    EXPECT_EQ(outer, 3);
    EXPECT_EQ(inner, 200); // started at 1 s, fired at 2 s and 3 s
    EXPECT_EQ(simulator.pendingEvents(), 100u);
}

TEST(Simulator, RunUntilNeverReturnsOnEmptyQueue)
{
    // nextTime() of an empty queue is kTimeNever, which is not past
    // this deadline: emptiness alone must end the run.
    Simulator idle;
    idle.runUntil(kTimeNever);
    EXPECT_EQ(idle.eventsRun(), 0u);

    Simulator drained;
    drained.at(seconds(5), [] {});
    drained.runUntil(kTimeNever);
    EXPECT_EQ(drained.eventsRun(), 1u);
}

TEST(Simulator, RunUntilNeverLeavesTheClockUsable)
{
    Simulator simulator;
    simulator.runUntil(kTimeNever);
    EXPECT_EQ(simulator.now(), 0);
    SimTime fired_at = -1;
    simulator.after(seconds(1), [&] { fired_at = simulator.now(); });
    simulator.runToCompletion();
    EXPECT_EQ(fired_at, seconds(1));
}

TEST(SimulatorDeathTest, SchedulingPastTheEndOfTimeDies)
{
    Simulator simulator;
    simulator.at(seconds(5), [] {});
    simulator.runToCompletion();
    EXPECT_DEATH(simulator.after(kTimeNever, [] {}), "passes kTimeNever");
    EXPECT_DEATH(simulator.every(
                     seconds(1), [] { return true; }, kTimeNever),
                 "passes kTimeNever");
    simulator.after(kTimeNever - seconds(5), [] {}); // exactly the end
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle)
{
    Simulator simulator;
    simulator.runUntil(seconds(50));
    EXPECT_EQ(simulator.now(), seconds(50));
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents)
{
    Simulator simulator;
    bool fired = false;
    simulator.at(seconds(100), [&] { fired = true; });
    simulator.runUntil(seconds(99));
    EXPECT_FALSE(fired);
    simulator.runUntil(seconds(100));
    EXPECT_TRUE(fired);
}

TEST(Simulator, EventsRunCounter)
{
    Simulator simulator;
    for (int i = 0; i < 7; ++i)
        simulator.at(seconds(i + 1), [] {});
    simulator.runToCompletion();
    EXPECT_EQ(simulator.eventsRun(), 7u);
}

TEST(Simulator, NestedSchedulingInsideEvent)
{
    Simulator simulator;
    std::vector<int> order;
    simulator.at(seconds(1), [&] {
        order.push_back(1);
        // Same-time follow-up must run after this event, same clock.
        simulator.after(0, [&] { order.push_back(2); });
    });
    simulator.at(seconds(2), [&] { order.push_back(3); });
    simulator.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimTimeHelpers, Conversions)
{
    EXPECT_EQ(seconds(1.5), 1500000);
    EXPECT_EQ(milliseconds(2.0), 2000);
    EXPECT_EQ(minutes(1.0), 60000000);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(2.5)), 2.5);
}

} // namespace
} // namespace sim
} // namespace mercury
