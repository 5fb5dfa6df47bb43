// The one concurrency substrate of the repo.
//
// Two workloads share it, both of the same shape — a driver thread hands
// independent units of work to a set of long-lived workers:
//
//  * parallel_for() is the fork-join primitive (Monte-Carlo grids): task
//    indices are claimed dynamically, the caller participates, and the
//    call returns when every index has retired. Determinism is the
//    caller's business and is easy to keep: a task that depends only on
//    its own index (its own RNG stream, its own result slot) yields
//    bit-identical results at any worker count, which is exactly how
//    run_binned_simulation, run_mc_model and the experiment grids use it.
//    Callers resolve their thread count with resolve_parallelism, grow
//    the shared pool with ensure_workers(threads - 1) and pass `threads`
//    as max_parallelism.
//
//  * submit() is the streaming primitive (ingest shards): fire-and-forget
//    tasks that drain a shard's SPSC ring and return. Tasks must be
//    cooperative — they run to completion and never block waiting for
//    another pool task — so any worker count (including one) makes
//    progress and a pipeline never deadlocks on its own substrate. The
//    ingest drain task is the canonical shape: pop until the ring is
//    empty, retire its exclusive-ownership flag, re-check, and resubmit
//    a successor instead of looping forever (see
//    ingest/sharded_pipeline.cpp for the retire protocol).
//
// The process-wide shared() pool persists across sweeps and pipeline
// runs: repeated short pipelines and sweeps reuse parked workers
// instead of paying thread start-up per run. Workers are added on demand
// (ensure_workers) and only retire at process exit.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "flowrank/util/sync.hpp"
#include "flowrank/util/thread_annotations.hpp"

namespace flowrank::exec {

/// Worker pool shared by the sweep and ingest engines. Thread-safe: any
/// thread may submit() or run a parallel_for() (each parallel_for is
/// driven by its calling thread; concurrent calls interleave fairly on
/// the shared workers).
class TaskPool {
 public:
  /// Hard cap on any requested parallelism (threads, shards, grid
  /// workers). Requests beyond it are configuration bugs — a mistyped
  /// `--threads 40960` would otherwise silently try to spawn thousands
  /// of threads — and fail fast with std::invalid_argument.
  static constexpr std::size_t kMaxParallelism = 4096;

  /// Starts with `initial_workers` workers (0 is valid: parallel_for
  /// then runs entirely on the calling thread and submit() runs inline).
  /// Throws std::invalid_argument beyond kMaxParallelism.
  explicit TaskPool(std::size_t initial_workers = 0);

  /// Joins the workers. Pending submitted tasks are drained first.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// The process-wide pool. Created on first use, grown on demand,
  /// destroyed at exit.
  [[nodiscard]] static TaskPool& shared();

  /// Grows the pool to at least `count` workers (never shrinks). Throws
  /// std::invalid_argument beyond kMaxParallelism.
  void ensure_workers(std::size_t count);

  [[nodiscard]] std::size_t worker_count() const;

  /// Executes fn(i) once for every i in [0, count), spread dynamically
  /// over at most `max_parallelism` threads (the caller plus up to
  /// max_parallelism - 1 pool workers; max_parallelism == 1 runs inline
  /// with no locking). fn must be safe to call concurrently for distinct
  /// i. If a task throws, unclaimed indices are skipped, in-flight ones
  /// finish, and the first exception is rethrown here.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                    std::size_t max_parallelism = kMaxParallelism);

  /// Enqueues a fire-and-forget task. Tasks must be cooperative (run to
  /// completion, never wait on another pool task) and must not throw —
  /// an escaping exception terminates the process, as it would have
  /// terminated the dedicated thread it replaces. With zero workers the
  /// task runs inline in submit().
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has retired. parallel_for
  /// helper tasks count too, but parallel_for already waits for its own.
  void wait_idle();

  /// Clamp helper for config plumbing: 0 means "all hardware threads".
  /// Throws std::invalid_argument beyond kMaxParallelism.
  [[nodiscard]] static std::size_t resolve_parallelism(std::size_t requested);

 private:
  void worker_loop();

  mutable util::Mutex mutex_;
  util::CondVar wake_workers_;  ///< task queued (or shutdown)
  util::CondVar idle_;          ///< outstanding_ hit zero
  std::deque<std::function<void()>> queue_ FR_GUARDED_BY(mutex_);
  /// Queued + running tasks.
  std::size_t outstanding_ FR_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ FR_GUARDED_BY(mutex_) = false;
  /// Only grows while the pool is live; the destructor joins without the
  /// lock (workers need it to observe shutdown).
  std::vector<std::thread> workers_ FR_GUARDED_BY(mutex_);
};

}  // namespace flowrank::exec
