#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace bf {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // A single-thread pool runs tasks inline in submit(); no worker needed.
  if (threads == 1) return;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {

/// One parallel_for call: chunk claims go through an atomic index, and the
/// caller waits on `done` reaching `chunks`. Helpers hold the job by
/// shared_ptr, so one that starts after every chunk is claimed only sees
/// the exhausted index and never touches fn.
struct ForJob {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk_size = 0;
  std::size_t chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable all_done;
  std::size_t done = 0;
  std::exception_ptr error;

  void work() {
    while (true) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      std::exception_ptr err;
      if (!failed.load(std::memory_order_relaxed)) {
        const std::size_t lo = begin + c * chunk_size;
        const std::size_t hi = std::min(end, lo + chunk_size);
        try {
          for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
        } catch (...) {
          err = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (err && !error) error = err;
      if (++done == chunks) all_done.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t nthreads = size();
  if (nthreads == 1 || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t target_chunks = std::min(n, nthreads * 4);
  auto job = std::make_shared<ForJob>();
  job->chunk_size = (n + target_chunks - 1) / target_chunks;
  job->chunks = (n + job->chunk_size - 1) / job->chunk_size;
  job->begin = begin;
  job->end = end;
  job->fn = &fn;
  // The caller is one of the pool-size workers on this job.
  const std::size_t helpers = std::min(job->chunks, nthreads) - 1;
  for (std::size_t h = 0; h < helpers; ++h) submit([job] { job->work(); });
  job->work();
  std::unique_lock<std::mutex> lock(job->mu);
  job->all_done.wait(lock, [&] { return job->done == job->chunks; });
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace bf
