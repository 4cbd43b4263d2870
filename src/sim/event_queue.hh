/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events at the same tick execute in scheduling (FIFO) order, so a
 * simulation is exactly reproducible run to run. The heap holds
 * 24-byte POD entries and the callbacks live in a slab, so a heap
 * sift never moves a closure. Cancellation removes the event from
 * the heap at once.
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

/** 4-ary min-heap event queue driving the simulated machine. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

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

    /** True when no live events remain. */
    bool
    empty() const
    {
        return heap_.empty();
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

    /** Events executed so far. */
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

    void siftUp(std::size_t index);
    void siftDown(std::size_t index);
    /** Remove heap_[index] and restore the heap property. */
    void removeAt(std::size_t index);

    Tick now_ = 0;
    EventId next_id_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Entry> heap_;
    CallbackSlab callbacks_;
};

} // namespace tt::sim

#endif // TT_SIM_EVENT_QUEUE_HH
