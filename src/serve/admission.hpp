// AdmissionController: the front door's bounded request scheduler
// (DESIGN.md §15.1).
//
// Serving is synchronous — each client thread calls FrontDoor::Serve and
// blocks for its answer — so admission control is a counting gate, not a
// task queue: at most `max_concurrent` requests execute at once, at most
// `max_queue` more wait their turn, and anything beyond that is rejected
// immediately with kResourceExhausted (fail fast beats unbounded queueing;
// the caller can retry with backoff).
//
// Waiters queue FIFO as nodes on their own stacks, each with its own
// condition variable; a release hands its slot straight to the head waiter
// and wakes only that thread. With a nonzero `max_wait_us`, a waiter still
// queued at its deadline unlinks its own node and fails with a typed
// kResourceExhausted; one granted as its deadline passed keeps the slot.
//
// Metrics: serve.admitted / serve.rejected counters and serve.running /
// serve.queued gauges.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/status.hpp"

namespace cisqp::serve {

class AdmissionController {
 public:
  /// `max_wait_us` bounds how long an admitted-to-queue request may wait
  /// for its slot; 0 means wait indefinitely (the historical behavior).
  AdmissionController(std::size_t max_concurrent, std::size_t max_queue,
                      std::int64_t max_wait_us = 0);

  /// RAII admission slot: releasing it (destruction) hands the slot to the
  /// next waiter, if any.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(AdmissionController* owner) : owner_(owner) {}
    Ticket(Ticket&& other) noexcept : owner_(other.owner_) {
      other.owner_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        owner_ = other.owner_;
        other.owner_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

   private:
    void Release();
    AdmissionController* owner_ = nullptr;
  };

  /// Blocks until a slot frees (FIFO among waiters), or fails immediately
  /// with kResourceExhausted when the wait queue is already full, or — with
  /// a nonzero `max_wait_us` — with kResourceExhausted when the deadline
  /// passes while still queued. On success `queue_wait_us` (when non-null)
  /// receives the time spent queued.
  Result<Ticket> Admit(std::int64_t* queue_wait_us = nullptr);

  std::size_t running() const;
  std::size_t queued() const;
  std::uint64_t admitted() const noexcept {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  friend class Ticket;

  /// One queued Admit call; lives on that call's stack.
  struct Waiter {
    std::condition_variable cv;
    bool granted = false;  ///< set by ReleaseSlot when it hands over a slot
    Waiter* next = nullptr;
  };

  void ReleaseSlot();

  /// With mu_ held: removes `waiter` from the list.
  void Unlink(Waiter* waiter);

  const std::size_t max_concurrent_;
  const std::size_t max_queue_;
  const std::int64_t max_wait_us_;  ///< 0 = unbounded queueing
  mutable std::mutex mu_;
  std::size_t running_ = 0;
  std::size_t queued_ = 0;     ///< length of the waiter list
  Waiter* head_ = nullptr;     ///< next waiter to be granted a slot
  Waiter** tail_ = &head_;     ///< the list's last `next` link
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace cisqp::serve
