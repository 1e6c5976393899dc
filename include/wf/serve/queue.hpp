#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace wf::serve {

// Bounded MPSC ring buffer between the connection threads and the model
// worker (tor's mqueue idiom): a fixed circular slot array under one mutex.
// Producers never block on the model — a full ring fails the push
// immediately, which the server turns into a retryable backpressure error.
// The single consumer drains every queued item in one wave, so requests
// arriving while a batch is in flight coalesce into the next
// fingerprint_batch call instead of paying one model dispatch each.
//
// Happens-before contract (verified under ThreadSanitizer by
// test_ring_chaos):
//
//   * Every state transition — offer, pop_wave, close — happens under the
//     one mutex, so for any two operations one strictly happens-before the
//     other; there are no lock-free fast paths to reason about.
//   * An accepted offer() happens-before the pop_wave() that returns the
//     item: the producer's writes to T (made before offering) are visible
//     to the consumer. Items are delivered exactly once, in ring order.
//   * close() happens-before every subsequent offer() observing `closed`
//     and before the empty pop_wave() that tells the consumer to exit.
//     Items accepted before the close stay poppable — close() never loses
//     an accepted item, so a producer seeing `accepted` may rely on its
//     request being answered even when the close races the offer.
//   * The condition variable is only an optimization over this ordering: a
//     consumer woken spuriously re-reads count_/closed_ under the mutex, so
//     missed-wakeup bugs cannot reorder the contract, only delay it.
template <typename T>
class RingQueue {
 public:
  explicit RingQueue(std::size_t capacity) : slots_(capacity == 0 ? 1 : capacity) {}

  std::size_t capacity() const { return slots_.size(); }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  // Why a push was refused: `full` is transient backpressure (resend after
  // a pause), `closed` means the server is draining (resend elsewhere).
  enum class PushOutcome { accepted, full, closed };

  PushOutcome offer(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushOutcome::closed;
      if (count_ == slots_.size()) return PushOutcome::full;
      slots_[(head_ + count_) % slots_.size()] = std::move(item);
      ++count_;
    }
    ready_.notify_one();
    return PushOutcome::accepted;
  }

  // Blocks until at least one item is queued (or the queue is closed), then
  // pops up to max_items in arrival order. An empty result means closed AND
  // drained — the consumer's signal to exit.
  std::vector<T> pop_wave(std::size_t max_items) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return count_ > 0 || closed_; });
    WF_DCHECK(count_ <= slots_.size(), "RingQueue: count exceeds capacity");
    std::vector<T> wave;
    const std::size_t n = std::min(count_, max_items == 0 ? count_ : max_items);
    wave.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      wave.push_back(std::move(slots_[head_]));
      head_ = (head_ + 1) % slots_.size();
      --count_;
    }
    return wave;
  }

  // Fails future pushes and wakes the consumer; queued items stay poppable.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace wf::serve
