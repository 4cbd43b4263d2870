/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events at the same tick execute in scheduling (FIFO) order, so a
 * simulation is exactly reproducible run to run. Two kinds of event
 * share one order:
 *
 *  - heap events: any closure at any future tick, kept in a 4-ary
 *    min-heap of 24-byte POD entries with the callbacks in a slab,
 *    so a sift never moves a closure. Cancellation removes the event
 *    from the heap at once.
 *  - lane events: a FIFO lane is a stream of events whose ticks never
 *    decrease (a DRAM channel's completions, say). Its owner registers
 *    one plain handler, and each event carries only a 64-bit argument,
 *    so scheduling one is a ring append and no sift.
 *
 * Both kinds draw their EventId from one counter, and runOne()
 * executes the smallest (tick, id) among the heap top and every lane
 * head: the same total order a single heap of all events would give.
 */

#ifndef TT_SIM_EVENT_QUEUE_HH
#define TT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/ticks.hh"

namespace tt::sim {

/** Handle to a scheduled event; usable for descheduling. */
using EventId = std::uint64_t;

/**
 * Callbacks held by index, so the structures that order them (the
 * event heap, a DRAM channel's request queue) move a 4-byte slot
 * instead of a closure. Freed slots are reused first, so the slab
 * stops growing once it covers the peak number held at once.
 */
class CallbackSlab
{
  public:
    using Callback = std::function<void()>;

    /** Store `cb`; returns its slot. */
    std::uint32_t
    put(Callback cb)
    {
        if (free_.empty()) {
            slots_.push_back(std::move(cb));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(cb);
        return slot;
    }

    /** True when `slot` holds a non-empty callback. */
    bool holds(std::uint32_t slot) const { return bool(slots_[slot]); }

    /** Remove and return the callback in `slot`, freeing the slot. */
    Callback
    take(std::uint32_t slot)
    {
        Callback cb = std::move(slots_[slot]);
        slots_[slot] = nullptr;
        free_.push_back(slot);
        return cb;
    }

  private:
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> free_;
};

/** Index of a FIFO event lane, returned by EventQueue::addLane(). */
using LaneId = std::uint32_t;

/** Event queue driving the simulated machine: a heap plus FIFO lanes. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** A lane's handler, called as `handler(owner, arg)`. */
    using LaneHandler = void (*)(void *owner, std::uint64_t arg);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule `cb` at absolute tick `when` (>= now). */
    EventId schedule(Tick when, Callback cb);

    /** Schedule `cb` `delta` ticks from now. */
    EventId scheduleIn(Tick delta, Callback cb);

    /**
     * Cancel a pending event; no-op if already executed, already
     * cancelled or unknown. Linear in the number of pending events
     * (cancellation is rare: run teardown and retry abandonment).
     */
    void deschedule(EventId id);

    /**
     * Register a FIFO lane whose events call `handler(owner, arg)`.
     * `owner` must outlive every event scheduled on the lane.
     */
    LaneId addLane(LaneHandler handler, void *owner);

    /**
     * Schedule an event on `lane` at absolute tick `when`. `when` must
     * be >= now and >= the tick of the lane's last scheduled event: a
     * lane that goes back in time is a model bug and panics. Lane
     * events cannot be descheduled (nothing cancels the events that
     * use lanes, the DRAM pick, completion and return hop).
     */
    EventId scheduleLane(LaneId lane, Tick when, std::uint64_t arg);

    /** True when no live events remain, on the heap or on a lane. */
    bool
    empty() const
    {
        return heap_.empty() && lane_pending_ == 0;
    }

    /**
     * Execute the earliest pending event; returns false when the
     * queue is empty.
     */
    bool runOne();

    /**
     * Run until the queue drains. `max_events` bounds runaway
     * simulations; exceeding it is a panic (a model bug, since all
     * models here terminate).
     */
    void run(std::uint64_t max_events = kDefaultEventBudget);

    /** Events executed so far, heap and lane events alike. */
    std::uint64_t executed() const { return executed_; }

    static constexpr std::uint64_t kDefaultEventBudget =
        50'000'000'000ULL;

  private:
    struct Entry
    {
        Tick when;
        EventId id;
        std::uint32_t slot; ///< the callback's slot in callbacks_

        bool
        operator<(const Entry &other) const
        {
            if (when != other.when)
                return when < other.when;
            return id < other.id; // FIFO among equal ticks
        }
    };

    /** Ordering key of a lane's oldest event. */
    struct Head
    {
        Tick when;
        EventId id;
    };

    struct LaneEntry
    {
        Tick when;
        EventId id;
        std::uint64_t arg;
    };

    /**
     * One lane: a ring of pending events, oldest at `head`. The ring
     * doubles when full, so it stops growing once it covers the most
     * events the lane ever holds at once.
     */
    struct Lane
    {
        LaneHandler handler;
        void *owner;
        std::vector<LaneEntry> ring;
        std::size_t head = 0;
        std::size_t count = 0;
        Tick last_when = 0; ///< tick of the newest event ever scheduled
    };

    /** Sentinel key of an empty lane: later than every real event. */
    static constexpr Head kNoEvent{~Tick{0}, ~EventId{0}};

    static bool
    before(const Head &a, const Head &b)
    {
        return a.when != b.when ? a.when < b.when : a.id < b.id;
    }

    void siftUp(std::size_t index);
    void siftDown(std::size_t index);
    /** Remove heap_[index] and restore the heap property. */
    void removeAt(std::size_t index);

    Tick now_ = 0;
    EventId next_id_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Entry> heap_;
    CallbackSlab callbacks_;
    std::vector<Lane> lanes_;
    /** heads_[i] keys lanes_[i]'s oldest event (kNoEvent if empty). */
    std::vector<Head> heads_;
    std::size_t lane_pending_ = 0;
};

} // namespace tt::sim

#endif // TT_SIM_EVENT_QUEUE_HH
