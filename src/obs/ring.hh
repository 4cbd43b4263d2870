/**
 * @file
 * The one bounded overwrite ring behind the per-worker trace rings
 * (trace.hh) and the span store (span.hh).
 */

#ifndef TT_OBS_RING_HH
#define TT_OBS_RING_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace tt::obs {

/**
 * Fixed-capacity ring with a single writer at a time. Storage is
 * reserved up front and filled by push_back, so recording never
 * reallocates; when full, the oldest item is overwritten and counted
 * in dropped(). The recorded()/size()/dropped() counters derive from
 * one relaxed atomic and are safe to read live from any thread; the
 * items themselves may only be read once the writer is quiescent.
 */
template <typename T>
class BoundedRing
{
  public:
    explicit BoundedRing(std::size_t capacity) : capacity_(capacity)
    {
        tt_assert(capacity_ > 0, "ring capacity must be positive");
        data_.reserve(capacity_);
    }

    /** Vector-relocation support for container construction only --
     *  the atomic counter makes the default move deleted. Never
     *  valid once the writer records concurrently. */
    BoundedRing(BoundedRing &&other) noexcept
        : capacity_(other.capacity_),
          recorded_(other.recorded_.load(std::memory_order_relaxed)),
          data_(std::move(other.data_))
    {
    }

    /** Append one item, overwriting the oldest when full. */
    void record(T item)
    {
        const std::uint64_t n = recorded_.load(std::memory_order_relaxed);
        if (data_.size() < capacity_)
            data_.push_back(std::move(item));
        else
            data_[static_cast<std::size_t>(n % capacity_)] =
                std::move(item);
        recorded_.store(n + 1, std::memory_order_relaxed);
    }

    std::size_t capacity() const { return capacity_; }

    /** Total items recorded, including overwritten ones. */
    std::uint64_t recorded() const
    {
        return recorded_.load(std::memory_order_relaxed);
    }

    /** Items currently held (<= capacity). */
    std::size_t size() const
    {
        return static_cast<std::size_t>(
            std::min<std::uint64_t>(recorded(), capacity_));
    }

    /** Items lost to overwriting. */
    std::uint64_t dropped() const { return recorded() - size(); }

    /** Held items, oldest first. */
    std::vector<T> items() const
    {
        std::vector<T> out;
        out.reserve(data_.size());
        // Once the ring has wrapped, the oldest surviving item sits
        // at the next overwrite position.
        const std::size_t head =
            data_.size() < capacity_
                ? 0
                : static_cast<std::size_t>(recorded() % capacity_);
        for (std::size_t i = 0; i < data_.size(); ++i)
            out.push_back(data_[(head + i) % data_.size()]);
        return out;
    }

  private:
    std::size_t capacity_;
    std::atomic<std::uint64_t> recorded_{0};
    std::vector<T> data_; ///< slot = recorded % capacity
};

} // namespace tt::obs

#endif // TT_OBS_RING_HH
