#include "net/worker_pool.h"

namespace phoenix::net {

WorkerPool::WorkerPool(Options opts) : opts_(opts) {
  if (opts_.threads == 0) opts_.threads = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  threads_.reserve(opts_.threads);
  for (size_t i = 0; i < opts_.threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

bool WorkerPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    not_full_.wait(lk, [this] {
      return stopping_ || queue_.size() < opts_.queue_capacity;
    });
    if (stopping_) return false;
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return true;
}

void WorkerPool::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    to_join.swap(threads_);  // claim the join exactly once
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

void WorkerPool::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      not_empty_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      // Graceful drain: even when stopping, accepted tasks still run.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    not_full_.notify_one();
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace phoenix::net
