#include "flowrank/exec/task_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "flowrank/util/sync.hpp"
#include "flowrank/util/thread_annotations.hpp"

namespace flowrank::exec {

namespace {

void check_parallelism(std::size_t requested, const char* what) {
  if (requested > TaskPool::kMaxParallelism) {
    throw std::invalid_argument(
        std::string("TaskPool: ") + what + " " + std::to_string(requested) +
        " exceeds the sanity cap of " + std::to_string(TaskPool::kMaxParallelism) +
        " (a request this large is almost certainly a configuration bug)");
  }
}

/// Shared state of one parallel_for call. Helpers hold it by shared_ptr so
/// a helper that is still queued when the call returns finds next >= count
/// and retires without ever touching the caller-owned closure.
struct ForJob {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  util::Mutex mutex;
  util::CondVar done;
  /// First unclaimed index.
  std::size_t next FR_GUARDED_BY(mutex) = 0;
  /// Claimed but not yet retired.
  std::size_t in_flight FR_GUARDED_BY(mutex) = 0;
  /// First exception thrown by a task.
  std::exception_ptr error FR_GUARDED_BY(mutex);
};

/// Claims and runs indices until none are left. Runs on helpers and on the
/// calling thread alike.
void drain(ForJob& job) {
  for (;;) {
    std::size_t index;
    {
      util::MutexLock lock(job.mutex);
      if (job.next >= job.count) return;
      index = job.next++;
      ++job.in_flight;
    }
    try {
      (*job.fn)(index);
    } catch (...) {
      util::MutexLock lock(job.mutex);
      if (!job.error) job.error = std::current_exception();
      job.next = job.count;  // skip everything still unclaimed
    }
    {
      util::MutexLock lock(job.mutex);
      --job.in_flight;
      if (job.next >= job.count && job.in_flight == 0) job.done.notify_all();
    }
  }
}

}  // namespace

TaskPool::TaskPool(std::size_t initial_workers) {
  check_parallelism(initial_workers, "worker count");
  ensure_workers(initial_workers);
}

// Joining must happen without mutex_ (exiting workers take it to observe
// shutting_down_), and workers_ itself is append-only while the pool is
// live, so the unguarded reads here race with nothing. The analysis skips
// destructors anyway; the annotation documents the reasoning for readers.
TaskPool::~TaskPool() FR_NO_THREAD_SAFETY_ANALYSIS {
  {
    util::MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  wake_workers_.notify_all();
  for (auto& worker : workers_) worker.join();
}

TaskPool& TaskPool::shared() {
  static TaskPool pool;
  return pool;
}

void TaskPool::ensure_workers(std::size_t count) {
  check_parallelism(count, "worker count");
  util::MutexLock lock(mutex_);
  while (workers_.size() < count) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::size_t TaskPool::worker_count() const {
  util::MutexLock lock(mutex_);
  return workers_.size();
}

std::size_t TaskPool::resolve_parallelism(std::size_t requested) {
  check_parallelism(requested, "parallelism");
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void TaskPool::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn,
                            std::size_t max_parallelism) {
  if (max_parallelism < 1) {
    throw std::invalid_argument("TaskPool: max_parallelism >= 1");
  }
  check_parallelism(max_parallelism, "parallelism");
  if (count == 0) return;

  std::size_t helpers = 0;
  {
    util::MutexLock lock(mutex_);
    helpers = std::min({max_parallelism - 1, workers_.size(), count - 1});
  }
  if (helpers == 0) {
    // Inline fast path: no locks, same skip-after-throw semantics.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto job = std::make_shared<ForJob>();
  job->fn = &fn;
  job->count = count;
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([job] { drain(*job); });
  }

  // The calling thread is one of the job's claimants.
  drain(*job);

  util::MutexLock lock(job->mutex);
  while (job->next < job->count || job->in_flight != 0) {
    job->done.wait(job->mutex);
  }
  if (job->error) {
    std::exception_ptr error = job->error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void TaskPool::submit(std::function<void()> task) {
  {
    util::MutexLock lock(mutex_);
    if (!workers_.empty()) {
      queue_.push_back(std::move(task));
      ++outstanding_;
      wake_workers_.notify_one();
      return;
    }
  }
  // No workers: run inline so a zero-worker pool still makes progress.
  task();
}

void TaskPool::wait_idle() {
  util::MutexLock lock(mutex_);
  while (outstanding_ != 0) idle_.wait(mutex_);
}

void TaskPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) wake_workers_.wait(mutex_);
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      util::MutexLock lock(mutex_);
      if (--outstanding_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace flowrank::exec
