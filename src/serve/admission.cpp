#include "serve/admission.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::serve {

AdmissionController::AdmissionController(std::size_t max_concurrent,
                                         std::size_t max_queue,
                                         std::int64_t max_wait_us)
    : max_concurrent_(max_concurrent == 0 ? 1 : max_concurrent),
      max_queue_(max_queue),
      max_wait_us_(max_wait_us) {}

void AdmissionController::Unlink(Waiter* waiter) {
  Waiter** link = &head_;
  while (*link != waiter) link = &(*link)->next;
  *link = waiter->next;
  if (tail_ == &waiter->next) tail_ = link;
  --queued_;
  CISQP_METRIC_SET("serve.queued", static_cast<double>(queued_));
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    std::int64_t* queue_wait_us) {
  std::unique_lock<std::mutex> lock(mu_);
  std::int64_t waited_us = 0;
  if (running_ < max_concurrent_ && head_ == nullptr) {
    ++running_;
  } else {
    if (queued_ >= max_queue_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      CISQP_METRIC_INC("serve.rejected");
      return ResourceExhaustedError(
          "admission queue full (" + std::to_string(queued_) + " waiting, " +
          std::to_string(running_) + " running)");
    }
    Waiter self;
    *tail_ = &self;
    tail_ = &self.next;
    ++queued_;
    CISQP_METRIC_SET("serve.queued", static_cast<double>(queued_));
    const std::int64_t start = obs::NowMicros();
    const auto granted = [&] { return self.granted; };
    if (max_wait_us_ > 0) {
      self.cv.wait_until(lock,
                         std::chrono::steady_clock::now() +
                             std::chrono::microseconds(max_wait_us_),
                         granted);
    } else {
      self.cv.wait(lock, granted);
    }
    waited_us = obs::NowMicros() - start;
    if (!self.granted) {
      // Deadline passed while still queued: leave the line.
      Unlink(&self);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      CISQP_METRIC_INC("serve.rejected");
      return ResourceExhaustedError(
          "admission wait exceeded max_wait_us=" +
          std::to_string(max_wait_us_) + " (" + std::to_string(waited_us) +
          "us queued)");
    }
    // Granted: ReleaseSlot unlinked this node and moved its slot here.
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  CISQP_METRIC_INC("serve.admitted");
  CISQP_METRIC_SET("serve.running", static_cast<double>(running_));
  lock.unlock();
  if (queue_wait_us != nullptr) *queue_wait_us = waited_us;
  return Ticket(this);
}

void AdmissionController::ReleaseSlot() {
  const std::lock_guard<std::mutex> lock(mu_);
  Waiter* const next = head_;
  if (next == nullptr) {
    --running_;
    CISQP_METRIC_SET("serve.running", static_cast<double>(running_));
    return;
  }
  // Direct hand-off: the slot moves to the head waiter, running_ unchanged.
  // Notify before unlocking — the node lives on the waiter's stack, and once
  // mu_ is free the waiter may return and destroy it.
  Unlink(next);
  next->granted = true;
  next->cv.notify_one();
}

void AdmissionController::Ticket::Release() {
  if (owner_ != nullptr) {
    owner_->ReleaseSlot();
    owner_ = nullptr;
  }
}

std::size_t AdmissionController::running() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

std::size_t AdmissionController::queued() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace cisqp::serve
