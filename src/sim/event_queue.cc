#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::sim {

namespace {

constexpr std::size_t kArity = 4;
/** First ring size of a lane; a power of two, as every later one. */
constexpr std::size_t kLaneInitialCapacity = 16;

} // namespace

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    tt_assert(when >= now_, "cannot schedule into the past (when=",
              when, ", now=", now_, ")");
    tt_assert(cb, "scheduling an empty callback");
    const EventId id = next_id_++;
    heap_.push_back(Entry{when, id, callbacks_.put(std::move(cb))});
    siftUp(heap_.size() - 1);
    return id;
}

EventId
EventQueue::scheduleIn(Tick delta, Callback cb)
{
    return schedule(now_ + delta, std::move(cb));
}

void
EventQueue::deschedule(EventId id)
{
    const auto it = std::find_if(
        heap_.begin(), heap_.end(),
        [id](const Entry &entry) { return entry.id == id; });
    if (it == heap_.end())
        return;
    // Destroy the closure only after the heap is consistent again.
    const Callback dropped = callbacks_.take(it->slot);
    removeAt(static_cast<std::size_t>(it - heap_.begin()));
}

LaneId
EventQueue::addLane(LaneHandler handler, void *owner)
{
    tt_assert(handler, "registering a lane without a handler");
    Lane lane;
    lane.handler = handler;
    lane.owner = owner;
    lane.ring.resize(kLaneInitialCapacity);
    lanes_.push_back(std::move(lane));
    heads_.push_back(kNoEvent);
    return static_cast<LaneId>(lanes_.size() - 1);
}

EventId
EventQueue::scheduleLane(LaneId lane_id, Tick when, std::uint64_t arg)
{
    tt_assert(lane_id < lanes_.size(), "unknown lane ", lane_id);
    Lane &lane = lanes_[lane_id];
    tt_assert(when >= now_, "cannot schedule into the past (when=",
              when, ", now=", now_, ")");
    tt_assert(when >= lane.last_when, "lane ", lane_id,
              " out of order (when=", when, ", last=", lane.last_when,
              ")");
    if (lane.count == lane.ring.size()) {
        // Full: unroll into a ring twice the size, oldest first.
        std::vector<LaneEntry> grown(2 * lane.ring.size());
        for (std::size_t i = 0; i < lane.count; ++i)
            grown[i] = lane.ring[(lane.head + i) % lane.ring.size()];
        lane.ring = std::move(grown);
        lane.head = 0;
    }
    const EventId id = next_id_++;
    const std::size_t mask = lane.ring.size() - 1;
    lane.ring[(lane.head + lane.count) & mask] = LaneEntry{when, id, arg};
    if (lane.count++ == 0)
        heads_[lane_id] = Head{when, id};
    lane.last_when = when;
    ++lane_pending_;
    return id;
}

bool
EventQueue::runOne()
{
    // The earliest lane head...
    std::size_t best_lane = heads_.size();
    Head best = kNoEvent;
    for (std::size_t i = 0; i < heads_.size(); ++i) {
        if (before(heads_[i], best)) {
            best = heads_[i];
            best_lane = i;
        }
    }

    // ...unless the heap top precedes it.
    if (!heap_.empty() &&
        before(Head{heap_.front().when, heap_.front().id}, best)) {
        const Entry top = heap_.front();
        removeAt(0);
        now_ = top.when;
        ++executed_;
        // Take the closure out first: it may schedule, which can grow
        // the slab and reuse this slot.
        const Callback fn = callbacks_.take(top.slot);
        fn();
        return true;
    }
    if (best_lane == heads_.size())
        return false;

    Lane &lane = lanes_[best_lane];
    const LaneEntry event = lane.ring[lane.head];
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    --lane.count;
    --lane_pending_;
    heads_[best_lane] = lane.count == 0
                            ? kNoEvent
                            : Head{lane.ring[lane.head].when,
                                   lane.ring[lane.head].id};
    now_ = event.when;
    ++executed_;
    // The handler may add lanes, which moves `lane`.
    const LaneHandler handler = lane.handler;
    void *const owner = lane.owner;
    handler(owner, event.arg);
    return true;
}

void
EventQueue::run(std::uint64_t max_events)
{
    const std::uint64_t start = executed_;
    while (runOne()) {
        if (executed_ - start > max_events)
            tt_panic("event budget exhausted: simulation does not "
                     "terminate");
    }
}

void
EventQueue::siftUp(std::size_t index)
{
    const Entry moving = heap_[index];
    while (index > 0) {
        const std::size_t parent = (index - 1) / kArity;
        if (!(moving < heap_[parent]))
            break;
        heap_[index] = heap_[parent];
        index = parent;
    }
    heap_[index] = moving;
}

void
EventQueue::siftDown(std::size_t index)
{
    const std::size_t size = heap_.size();
    const Entry moving = heap_[index];
    for (;;) {
        const std::size_t first = kArity * index + 1;
        if (first >= size)
            break;
        const std::size_t end = std::min(first + kArity, size);
        std::size_t best = first;
        for (std::size_t child = first + 1; child < end; ++child)
            if (heap_[child] < heap_[best])
                best = child;
        if (!(heap_[best] < moving))
            break;
        heap_[index] = heap_[best];
        index = best;
    }
    heap_[index] = moving;
}

void
EventQueue::removeAt(std::size_t index)
{
    const Entry last = heap_.back();
    heap_.pop_back();
    if (index == heap_.size())
        return;
    heap_[index] = last;
    if (index > 0 && last < heap_[(index - 1) / kArity])
        siftUp(index);
    else
        siftDown(index);
}

} // namespace tt::sim
