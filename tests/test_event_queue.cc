/**
 * @file
 * Unit tests of the discrete-event kernel: ordering, FIFO tie
 * breaking, cancellation, re-entrant scheduling and the runaway
 * budget, plus randomized differential tests of the heap, and of the
 * heap mixed with FIFO lanes, against a reference ordering by (tick,
 * schedule order).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"
#include "util/random.hh"

namespace {

using tt::sim::EventId;
using tt::sim::EventQueue;
using tt::sim::LaneId;
using tt::sim::Tick;

/** Lane handler appending `arg` to the std::vector<int> at `owner`. */
void
recordArg(void *owner, std::uint64_t arg)
{
    static_cast<std::vector<int> *>(owner)->push_back(
        static_cast<int>(arg));
}

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

TEST(EventQueueLane, InterleavesWithHeapByTickThenScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    const LaneId a = q.addLane(recordArg, &order);
    const LaneId b = q.addLane(recordArg, &order);
    q.schedule(5, [&] { order.push_back(10); });
    q.scheduleLane(b, 5, 11);
    q.scheduleLane(a, 5, 12);
    q.schedule(3, [&] { order.push_back(13); });
    q.scheduleLane(a, 7, 14);
    q.schedule(5, [&] { order.push_back(15); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{13, 10, 11, 12, 15, 14}));
}

TEST(EventQueueLane, EmptyAndExecutedCountLaneEvents)
{
    EventQueue q;
    std::vector<int> order;
    const LaneId lane = q.addLane(recordArg, &order);
    EXPECT_TRUE(q.empty());
    q.scheduleLane(lane, 4, 1);
    q.scheduleLane(lane, 9, 2);
    EXPECT_FALSE(q.empty());
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_EQ(q.now(), 4u);
    EXPECT_FALSE(q.empty());
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.executed(), 2u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueLane, RingGrowsPastItsFirstCapacity)
{
    EventQueue q;
    std::vector<int> order;
    const LaneId lane = q.addLane(recordArg, &order);
    // Wrap the ring first, so growing has to unroll it.
    const auto at = [&](int i) {
        q.scheduleLane(lane, static_cast<Tick>(i),
                       static_cast<std::uint64_t>(i));
    };
    for (int i = 0; i < 10; ++i)
        at(i);
    for (int i = 0; i < 8; ++i)
        q.runOne();
    for (int i = 10; i < 100; ++i)
        at(i);
    q.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

/**
 * Randomized state for the mixed heap/lane differential test: events
 * go to the heap or to one of three lanes, every executed event must
 * be the reference minimum by (tick, schedule order), and the queue
 * must hand out EventIds in schedule order across both kinds.
 */
class MixedRun
{
  public:
    using Key = std::pair<Tick, std::uint64_t>;
    static constexpr std::uint64_t kEventsPerSeed = 20'000;
    static constexpr int kLanes = 3;

    explicit MixedRun(std::uint64_t seed) : rng_(seed)
    {
        for (int i = 0; i < kLanes; ++i) {
            lanes_.push_back(q_.addLane(
                [](void *self, std::uint64_t arg) {
                    auto *run = static_cast<MixedRun *>(self);
                    run->fire(run->lane_keys_[arg]);
                },
                this));
            lane_last_.push_back(0);
        }
    }

    void
    drive()
    {
        for (int i = 0; i < 64; ++i)
            spawn();
        while (q_.runOne())
            ASSERT_EQ(q_.empty(), pending_.empty());
        EXPECT_TRUE(pending_.empty());
        EXPECT_EQ(q_.executed(), ran_);
        EXPECT_EQ(ran_ + cancelled_, order_);
        EXPECT_GT(cancelled_, 0u);
        EXPECT_GT(lane_events_, order_ / 4);
    }

  private:
    void
    spawn()
    {
        const std::uint64_t kind = rng_.nextBounded(4);
        const Tick delta = kind == 0   ? 0
                           : kind == 1 ? rng_.nextBounded(3)
                           : kind == 2 ? rng_.nextBounded(100)
                                       : rng_.nextBounded(100'000);
        const std::uint64_t target = rng_.nextBounded(kLanes + 1);
        EventId id = 0;
        Key key;
        if (target == kLanes) {
            key = Key{q_.now() + delta, order_++};
            id = q_.scheduleIn(delta, [this, key] { fire(key); });
            heap_handles_.emplace_back(id, key);
        } else {
            // A lane never goes back in time: clamp to its last tick,
            // which also makes same-tick bursts on the lane common.
            Tick &last = lane_last_[target];
            last = std::max(last, q_.now() + delta);
            key = Key{last, order_++};
            id = q_.scheduleLane(lanes_[target], last, lane_keys_.size());
            lane_keys_.push_back(key);
            ++lane_events_;
        }
        EXPECT_EQ(id, key.second);
        pending_.insert(key);
    }

    void
    fire(const Key &key)
    {
        ASSERT_FALSE(pending_.empty());
        EXPECT_EQ(*pending_.begin(), key);
        EXPECT_EQ(q_.now(), key.first);
        pending_.erase(key);
        ++ran_;
        if (order_ < kEventsPerSeed) {
            const std::uint64_t children = rng_.nextBounded(4);
            for (std::uint64_t c = 0; c < children; ++c)
                spawn();
        }
        // Only heap events can be cancelled.
        if (rng_.nextBounded(8) == 0 && !heap_handles_.empty()) {
            const auto &[victim, victim_key] =
                heap_handles_[rng_.nextBounded(heap_handles_.size())];
            cancelled_ += pending_.erase(victim_key);
            q_.deschedule(victim);
        }
    }

    tt::Rng rng_;
    EventQueue q_;
    std::vector<LaneId> lanes_;
    std::vector<Tick> lane_last_;
    std::vector<Key> lane_keys_; ///< a lane event's arg indexes this
    std::vector<std::pair<EventId, Key>> heap_handles_;
    std::set<Key> pending_;
    std::uint64_t order_ = 0;
    std::uint64_t ran_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t lane_events_ = 0;
};

TEST(EventQueueLane, RandomizedMixedMatchesReferenceOrdering)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE(seed);
        MixedRun(seed).drive();
    }
}

TEST(EventQueueDeath, OutOfOrderLaneEventPanics)
{
    EventQueue q;
    std::vector<int> order;
    const LaneId lane = q.addLane(recordArg, &order);
    q.scheduleLane(lane, 100, 1);
    EXPECT_DEATH(q.scheduleLane(lane, 50, 2), "out of order");
}

TEST(EventQueueDeath, LaneEventsCountAgainstTheBudget)
{
    EventQueue q;
    // A lane handler that always reschedules itself (on lane 0, the
    // queue's only lane) never drains.
    const LaneId lane = q.addLane(
        [](void *self, std::uint64_t) {
            auto *queue = static_cast<EventQueue *>(self);
            queue->scheduleLane(0, queue->now() + 1, 0);
        },
        &q);
    ASSERT_EQ(lane, 0u);
    q.scheduleLane(lane, 0, 0);
    EXPECT_DEATH(q.run(1000), "budget");
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
