// A small fixed-size thread pool with a parallel_for helper.
//
// Random-forest training and the per-SM simulation loops are embarrassingly
// parallel; parallel_for chunks an index range over the pool. On a
// single-core host the pool degenerates to serial execution with no
// threading overhead (size 1 runs inline), so results and performance remain
// sensible everywhere.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bf {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.empty() ? 1 : workers_.size(); }

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed.
  void wait_idle();

  /// Run fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the pool. Blocks until complete. fn must be thread-safe across
  /// distinct indices. The caller claims chunks itself and then waits only
  /// for chunks other threads are running, so calls may nest inside pool
  /// tasks and run concurrently from many threads. The first exception fn
  /// throws is rethrown here once every claimed chunk has finished; chunks
  /// not yet started are then skipped.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (lazily created, sized to the machine).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace bf
