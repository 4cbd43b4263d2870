/**
 * @file
 * Unit tests of the discrete-event kernel: ordering, FIFO tie
 * breaking, cancellation, re-entrant scheduling and the runaway
 * budget, plus a randomized differential test of the heap against a
 * reference ordering by (tick, schedule order).
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"
#include "util/random.hh"

namespace {

using tt::sim::EventQueue;
using tt::sim::Tick;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoAmongEqualTicks)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleIn(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue q;
    bool ran = false;
    const auto id = q.schedule(10, [&] { ran = true; });
    q.deschedule(id);
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, DescheduleOneOfMany)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    const auto id = q.schedule(2, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    q.deschedule(id);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EmptyAfterDescheduleOfLastEvent)
{
    EventQueue q;
    const auto id = q.schedule(10, [] {});
    EXPECT_FALSE(q.empty());
    q.deschedule(id);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(q.now(), 0u); // a cancelled event never advances time
}

TEST(EventQueue, DescheduleOfExecutedOrUnknownIdIsNoop)
{
    EventQueue q;
    std::vector<int> order;
    const auto first = q.schedule(1, [&] { order.push_back(1); });
    q.run();
    q.deschedule(first);   // already executed
    q.deschedule(first);   // twice
    q.deschedule(12345);   // never issued
    q.schedule(2, [&] { order.push_back(2); });
    q.schedule(2, [&] { order.push_back(3); });
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, DescheduleOfRunningEventIsNoop)
{
    EventQueue q;
    int runs = 0;
    tt::sim::EventId self = 0;
    self = q.schedule(5, [&] {
        ++runs;
        q.deschedule(self);
        q.scheduleIn(1, [&] { ++runs; });
    });
    q.run();
    EXPECT_EQ(runs, 2);
}

TEST(EventQueue, ReentrantSchedulingAtSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(10, [&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.runOne());
    q.schedule(1, [] {});
    EXPECT_TRUE(q.runOne());
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.executed(), 10u);
}

/**
 * Differential test: every executed event must be the minimum, by
 * (tick, schedule order), of a reference set of pending events. The
 * events schedule successors from inside their callbacks (bursts at
 * the current tick, near ticks, far ticks) and randomly cancel
 * earlier handles, live or not.
 */
TEST(EventQueue, RandomizedMatchesReferenceOrdering)
{
    using Key = std::pair<Tick, std::uint64_t>;
    constexpr std::uint64_t kEventsPerSeed = 20'000;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE(seed);
        tt::Rng rng(seed);
        EventQueue q;
        std::set<Key> pending;
        std::vector<std::pair<tt::sim::EventId, Key>> handles;
        std::uint64_t order = 0;
        std::uint64_t ran = 0;
        std::uint64_t cancelled = 0;

        std::function<void()> spawn = [&] {
            const std::uint64_t kind = rng.nextBounded(4);
            const Tick delta = kind == 0   ? 0
                               : kind == 1 ? rng.nextBounded(3)
                               : kind == 2 ? rng.nextBounded(100)
                                           : rng.nextBounded(100'000);
            const Key key{q.now() + delta, order++};
            const auto id = q.scheduleIn(delta, [&, key] {
                ASSERT_FALSE(pending.empty());
                EXPECT_EQ(*pending.begin(), key);
                EXPECT_EQ(q.now(), key.first);
                pending.erase(key);
                ++ran;
                if (order < kEventsPerSeed) {
                    const std::uint64_t children = rng.nextBounded(4);
                    for (std::uint64_t c = 0; c < children; ++c)
                        spawn();
                }
                if (rng.nextBounded(8) == 0) {
                    const auto &[victim, victim_key] =
                        handles[rng.nextBounded(handles.size())];
                    cancelled += pending.erase(victim_key);
                    q.deschedule(victim);
                }
            });
            pending.insert(key);
            handles.emplace_back(id, key);
        };

        for (int i = 0; i < 64; ++i)
            spawn();
        while (q.runOne())
            ASSERT_EQ(q.empty(), pending.empty());
        EXPECT_TRUE(pending.empty());
        EXPECT_EQ(q.executed(), ran);
        EXPECT_EQ(ran + cancelled, order);
        EXPECT_GT(cancelled, 0u);
    }
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [&q] {
        EXPECT_DEATH(q.schedule(50, [] {}), "past");
    });
    q.run();
}

TEST(EventQueueDeath, RunawayBudgetPanics)
{
    EventQueue q;
    // A self-perpetuating event never drains; the budget must trip.
    std::function<void()> loop = [&] { q.scheduleIn(1, loop); };
    q.schedule(0, loop);
    EXPECT_DEATH(q.run(1000), "budget");
}

TEST(Ticks, Conversions)
{
    EXPECT_DOUBLE_EQ(tt::sim::toSeconds(tt::sim::kTicksPerSecond), 1.0);
    EXPECT_EQ(tt::sim::fromNs(1.0), 1000u);
    EXPECT_EQ(tt::sim::fromNs(7.5), 7500u);
    // 2.8 GHz -> 357 ps.
    EXPECT_EQ(tt::sim::cyclePeriod(2.8), 357u);
}

} // namespace
