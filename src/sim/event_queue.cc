#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::sim {

namespace {

constexpr std::size_t kArity = 4;

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

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
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
