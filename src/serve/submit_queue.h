// Bounded multi-producer / single-consumer queue between client threads
// and a query-serving executor.
//
// Producers are the many caller threads of QueryService::Submit();
// the single consumer is one shard's executor thread, which drives its
// Engine in shared-execution epochs (each EngineShard owns one of
// these queues). The bound is the service's admission backpressure:
// when the queue is full, TryPush refuses and the service rejects the
// query with kResourceExhausted. Producers never block.

#ifndef QSYS_SERVE_SUBMIT_QUEUE_H_
#define QSYS_SERVE_SUBMIT_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace qsys {

/// \brief Bounded MPSC queue: non-blocking pushes, blocking pops.
template <typename T>
class SubmitQueue {
 public:
  explicit SubmitQueue(size_t capacity) : capacity_(capacity) {}
  SubmitQueue(const SubmitQueue&) = delete;
  SubmitQueue& operator=(const SubmitQueue&) = delete;

  /// Enqueues without blocking. Returns false when the queue is full or
  /// closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    consumer_cv_.notify_one();
    return true;
  }

  /// Dequeues one item, blocking until one arrives, `deadline` passes,
  /// or the queue is closed *and* empty. Returns nullopt on timeout or
  /// closed-and-drained.
  std::optional<T> PopUntil(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    auto ready = [this] { return closed_ || !items_.empty(); };
    if (deadline.has_value()) {
      consumer_cv_.wait_until(lock, *deadline, ready);
    } else {
      consumer_cv_.wait(lock, ready);
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Dequeues everything currently queued without blocking.
  std::vector<T> DrainNow() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> out;
    out.reserve(items_.size());
    while (!items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return out;
  }

  /// Rejects all future pushes and wakes the consumer. Items already
  /// queued remain poppable (the executor drains or cancels them).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    consumer_cv_.notify_all();
  }

  /// Accepts pushes again after a Close() — used when a supervisor
  /// restarts a crashed shard engine behind an already-drained queue.
  /// The caller must guarantee no consumer is mid-shutdown on it.
  void Reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable consumer_cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace qsys

#endif  // QSYS_SERVE_SUBMIT_QUEUE_H_
