#ifndef PHOENIX_NET_WORKER_POOL_H_
#define PHOENIX_NET_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace phoenix::net {

/// Fixed-size thread pool with a bounded FIFO task queue — recovery's
/// checkpoint decode and partitioned WAL replay run on one.
///
///  - Submit() blocks the producer while the queue is full (backpressure,
///    never unbounded memory) and returns false once the pool is stopping.
///  - Drain() is the barrier between phases: it waits until every accepted
///    task has finished, with intake left open.
///  - Shutdown() is a *graceful drain*: intake stops immediately, but every
///    task already accepted (queued or running) finishes before the worker
///    threads are joined.
///  - Tasks are plain std::function<void()>; result delivery is the
///    caller's business.
class WorkerPool {
 public:
  struct Options {
    size_t threads = 4;
    size_t queue_capacity = 128;
  };

  explicit WorkerPool(Options opts);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  /// Implicit graceful Shutdown().
  ~WorkerPool();

  /// Enqueues a task, blocking while the queue is full. Returns false (task
  /// not accepted) iff Shutdown() has begun.
  bool Submit(std::function<void()> task);

  /// Stops intake, runs every accepted task to completion, joins workers.
  /// Idempotent.
  void Shutdown();

  /// Blocks until the queue is empty and all workers are idle. Intake stays
  /// open; racing producers can make this wait longer.
  void Drain();

  size_t threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  Options opts_;  ///< normalized in the constructor, constant afterwards
  mutable std::mutex mu_;
  std::condition_variable not_empty_;   ///< queue gained a task / stopping
  std::condition_variable not_full_;    ///< queue gained space / stopping
  std::condition_variable idle_;        ///< queue empty and nothing running
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t running_ = 0;  ///< tasks currently executing
  bool stopping_ = false;
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_WORKER_POOL_H_
