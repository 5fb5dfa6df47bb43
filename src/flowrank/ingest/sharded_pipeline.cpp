#include "flowrank/ingest/sharded_pipeline.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "flowrank/flowtable/hash_batch.hpp"
#include "flowrank/packet/flow_key.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/sync.hpp"

namespace flowrank::ingest {

namespace {
/// Insurance against a theoretically lost condvar wakeup: parked drivers
/// re-check their predicate at least this often. The notify protocols
/// below argue no wakeup is actually lost; the timed wait turns any gap
/// in that argument into a bounded stall instead of a deadlock.
constexpr std::chrono::milliseconds kParkRecheck{50};
}  // namespace

ShardedPipeline::ShardedPipeline(ShardedPipelineConfig config)
    : config_(std::move(config)) {
  // 0 = one shard per hardware thread; > kMaxParallelism throws here
  // rather than flooding the pool with thousands of tasks.
  config_.num_shards = exec::TaskPool::resolve_parallelism(config_.num_shards);
  if (config_.num_streams < 1) {
    throw std::invalid_argument("ShardedPipeline: num_streams >= 1");
  }
  if (config_.bin_ns <= 0) {
    throw std::invalid_argument("ShardedPipeline: bin_ns > 0");
  }
  if (config_.max_queue_chunks < 1) {
    throw std::invalid_argument("ShardedPipeline: max_queue_chunks >= 1");
  }
  if (config_.chunk_packets < 1) {
    throw std::invalid_argument("ShardedPipeline: chunk_packets >= 1");
  }
  if (config_.pool == nullptr) config_.pool = &exec::TaskPool::shared();
  // Grow the pool once so every shard can drain concurrently; workers are
  // parked between pipelines, so repeated short runs spawn nothing.
  config_.pool->ensure_workers(config_.num_shards);

  merged_.resize(config_.num_streams);
  pending_.resize(config_.num_streams);
  for (auto& per_shard : pending_) per_shard.resize(config_.num_shards);
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    // The free ring holds a couple more buffers than the chunk ring so a
    // worker finishing a burst can park every buffer it popped.
    auto shard = std::make_unique<Shard>(config_.max_queue_chunks,
                                         config_.max_queue_chunks + 2);
    shard->classifiers.reserve(config_.num_streams);
    for (std::size_t stream = 0; stream < config_.num_streams; ++stream) {
      shard->classifiers.push_back(flowtable::BinnedClassifier::with_table_view(
          config_.table_options, config_.bin_ns,
          [this, s, stream](std::size_t bin, const flowtable::FlowTable& table) {
            on_bin_flush(s, stream, bin, table);
          }));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedPipeline::~ShardedPipeline() {
  // The destructor is noexcept, so a shard error rethrown by finish()
  // here would terminate the process. Success paths call finish()
  // explicitly and get the exception; an abandoning destructor only
  // needs the drain.
  try {
    finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void ShardedPipeline::classify_chunk(Shard& shard, const Chunk& chunk) {
  try {
    shard.classifiers[chunk.stream].add_batch(chunk.data.packets,
                                              chunk.data.hashes);
  } catch (...) {
    util::MutexLock lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ShardedPipeline::drain_shard(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  while (true) {
    Chunk chunk;
    while (shard.ring.try_pop(chunk)) {
      // The pop freed a slot; wake a driver blocked on the full ring (or
      // parked in drain_all). Checking the waiter flag first keeps the
      // no-waiter hot path free of the mutex. The fence pairs with the
      // driver's fetch_add+fence in block_until_pushed/drain_all: one of
      // the two sides is guaranteed to see the other's write.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (shard.driver_waiting.load(std::memory_order_seq_cst) != 0) {
        util::MutexLock lock(shard.mutex);
        shard.wakeup.notify_all();
      }
      classify_chunk(shard, chunk);
      chunk.data.clear();
      // Recycle the buffer to the driver; if the free ring is full the
      // buffer simply dies (allocation is off the hot path).
      (void)shard.free_ring.try_push(chunk.data);
    }
    // Retire: drop the task flag, then re-check the ring. A driver that
    // pushed before our store sees task_active == true and does not
    // schedule — the re-check guarantees we (or a replacement task we
    // yield to) still drain that chunk. The fence pairs with the
    // driver's push-then-fence-then-exchange sequence in enqueue().
    //
    // The whole retirement runs under shard.mutex, and the unlock is the
    // task's last touch of the Shard. drain_all() reads task_active only
    // under the same mutex, so the driver cannot see this task retired
    // (return from finish() and free the pipeline) until the lock is
    // released. Storing the flag before taking the lock to notify would
    // let the driver observe the store, leave drain_all() and destroy the
    // Shard while this task was still about to lock its mutex.
    {
      util::MutexLock lock(shard.mutex);
      shard.task_active.store(false, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (shard.ring.empty()) {
        // Fully retired; a driver in drain_all() may be waiting for
        // exactly this transition.
        shard.wakeup.notify_all();
        return;
      }
      if (shard.task_active.exchange(true, std::memory_order_seq_cst)) {
        return;  // a replacement task is already scheduled; it drains
      }
    }
    // Reclaimed the flag: keep draining ourselves.
  }
}

ShardedPipeline::Batch ShardedPipeline::take_buffer(Shard& shard) {
  if (!driver_spares_.empty()) {
    Batch buffer = std::move(driver_spares_.back());
    driver_spares_.pop_back();
    buffer.clear();
    return buffer;
  }
  Batch buffer;
  if (shard.free_ring.try_pop(buffer)) buffer.clear();
  return buffer;
}

void ShardedPipeline::block_until_pushed(std::size_t shard_index,
                                         Chunk& chunk) {
  Shard& shard = *shards_[shard_index];
  // A full ring means a drain task is live (tasks retire only on an empty
  // ring), so there is a worker making progress and a wakeup coming.
  const bool bounded = config_.block_deadline_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.block_deadline_ms);
  util::MutexLock lock(shard.mutex);
  shard.driver_waiting.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  try {
    // try_push appears exactly once, in the loop head, and the loop exits
    // the moment it succeeds — the chunk can never be pushed twice.
    while (!shard.ring.try_push(chunk)) {
      auto wake = std::chrono::steady_clock::now() + kParkRecheck;
      if (bounded) {
        if (deadline <= std::chrono::steady_clock::now()) {
          throw Error(ErrorCategory::kStalled, "ingest",
                      "shard " + std::to_string(shard_index) +
                          " wedged: queue full for " +
                          std::to_string(config_.block_deadline_ms) + " ms");
        }
        if (deadline < wake) wake = deadline;
      }
      (void)shard.wakeup.wait_until(shard.mutex, wake);
    }
  } catch (...) {
    shard.driver_waiting.fetch_sub(1, std::memory_order_seq_cst);
    throw;
  }
  shard.driver_waiting.fetch_sub(1, std::memory_order_seq_cst);
}

void ShardedPipeline::enqueue(std::size_t shard_index, std::size_t stream,
                              Batch&& data) {
  Shard& shard = *shards_[shard_index];
  Chunk chunk{static_cast<std::uint32_t>(stream), std::move(data)};
  if (!shard.ring.try_push(chunk)) {
    queue_full_events_.fetch_add(1, std::memory_order_relaxed);
    if (config_.overload == OverloadPolicy::kShed) {
      // A full ring means a drain task is live (tasks retire only on an
      // empty ring), so dropping here loses no wakeup. Recycle the
      // buffer; the packets are gone and the counters say so. (The
      // driver cannot push to the free ring — that would add a second
      // producer — so shed buffers land in the driver-local spare pool.)
      shed_chunks_.fetch_add(1, std::memory_order_relaxed);
      shed_packets_.fetch_add(chunk.data.packets.size(),
                              std::memory_order_relaxed);
      chunk.data.clear();
      driver_spares_.push_back(std::move(chunk.data));
      return;
    }
    block_until_pushed(shard_index, chunk);
  }
  // Schedule a drain task unless one is already queued or running. The
  // fence orders the ring push before the flag read against the retiring
  // task's store-flag-then-recheck-ring sequence: either we observe the
  // retirement (exchange returns false, we schedule), or the retiring
  // task observes our push (re-check non-empty, it reclaims or yields to
  // the task we schedule). Either way the chunk is drained.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!shard.task_active.exchange(true, std::memory_order_seq_cst)) {
    config_.pool->submit([this, shard_index] { drain_shard(shard_index); });
  }
}

void ShardedPipeline::flush_pending(std::size_t stream,
                                    std::size_t shard_index) {
  Batch refill = take_buffer(*shards_[shard_index]);
  std::swap(pending_[stream][shard_index], refill);
  enqueue(shard_index, stream, std::move(refill));
}

void ShardedPipeline::add_batch(std::size_t stream,
                                std::span<const packet::PacketRecord> batch) {
  if (finished_) {
    throw std::logic_error("ShardedPipeline: add_batch after finish");
  }
  if (stream >= config_.num_streams) {
    throw std::out_of_range("ShardedPipeline: bad stream index");
  }
  if (batch.empty()) return;

  // Partition at source: one batch hash per packet, computed here
  // and carried with the record. Shard selection below and every
  // downstream FlowTable probe reuse it; no stage re-hashes a key.
  const std::size_t n = batch.size();
  scratch_keys_.resize(n);
  scratch_hashes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_keys_[i] =
        packet::make_flow_key(batch[i].tuple, config_.table_options.definition);
  }
  flowtable::hash_batch_table_ready(scratch_keys_, scratch_hashes_);

  auto& pending = pending_[stream];
  if (config_.num_shards == 1) {
    Batch& dst = pending[0];
    dst.packets.insert(dst.packets.end(), batch.begin(), batch.end());
    dst.hashes.insert(dst.hashes.end(), scratch_hashes_.begin(),
                      scratch_hashes_.end());
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      Batch& dst = pending[scratch_hashes_[i] % config_.num_shards];
      dst.packets.push_back(batch[i]);
      dst.hashes.push_back(scratch_hashes_[i]);
    }
  }
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    if (pending[s].packets.size() >= config_.chunk_packets) {
      flush_pending(stream, s);
    }
  }
}

void ShardedPipeline::drain_all() {
  for (std::size_t stream = 0; stream < config_.num_streams; ++stream) {
    for (std::size_t s = 0; s < config_.num_shards; ++s) {
      if (!pending_[stream][s].packets.empty()) flush_pending(stream, s);
    }
  }
  // Wait (on the driver thread, never on a pool worker) for every shard's
  // drain task to retire with an empty ring; after that no task touches
  // the shard until the next enqueue. The waiter flag + fence pair with
  // the drain task's retire sequence exactly like block_until_pushed.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mutex);
    shard.driver_waiting.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    while (shard.task_active.load(std::memory_order_seq_cst) ||
           !shard.ring.empty()) {
      (void)shard.wakeup.wait_until(
          shard.mutex, std::chrono::steady_clock::now() + kParkRecheck);
    }
    shard.driver_waiting.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ShardedPipeline::rethrow_pending_error() {
  std::exception_ptr error;
  {
    util::MutexLock lock(error_mutex_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ShardedPipeline::finish() {
  if (finished_) return;
  drain_all();
  finished_ = true;
  // Final (possibly partial) bin flushes, concurrent across shards like
  // any other flush; each shard's own flushes stay sequential.
  config_.pool->parallel_for(
      shards_.size(),
      [this](std::size_t s) {
        for (auto& classifier : shards_[s]->classifiers) classifier.finish();
      },
      config_.num_shards);
  rethrow_pending_error();
}

void ShardedPipeline::rotate_epoch(std::size_t next_bin) {
  if (finished_) {
    throw std::logic_error("ShardedPipeline: rotate_epoch after finish");
  }
  drain_all();
  // Window-boundary flushes across all shards and streams; like finish()
  // they run concurrently across shards, sequentially within one.
  config_.pool->parallel_for(
      shards_.size(),
      [this, next_bin](std::size_t s) {
        for (auto& classifier : shards_[s]->classifiers) {
          classifier.flush_through(next_bin);
        }
      },
      config_.num_shards);
  rethrow_pending_error();
}

OverloadStats ShardedPipeline::overload_stats() const noexcept {
  OverloadStats stats;
  stats.queue_full_events = queue_full_events_.load(std::memory_order_relaxed);
  stats.shed_chunks = shed_chunks_.load(std::memory_order_relaxed);
  stats.shed_packets = shed_packets_.load(std::memory_order_relaxed);
  return stats;
}

void ShardedPipeline::on_bin_flush(std::size_t shard, std::size_t stream,
                                   std::size_t bin,
                                   const flowtable::FlowTable& table) {
  if (config_.on_shard_bin) {
    config_.on_shard_bin(shard, stream, bin, table);
    return;
  }
  // Disjoint shard key sets: retaining the merged view is pure
  // concatenation, no re-probing. The lock is held once per bin per shard
  // per stream — far off the packet path.
  util::MutexLock lock(merged_mutex_);
  auto& bins = merged_[stream];
  if (bins.size() <= bin) bins.resize(bin + 1);
  auto& flows = bins[bin];
  flows.reserve(flows.size() + table.completed().size() + table.size());
  table.for_each_all(
      [&flows](const flowtable::FlowCounter& f) { flows.push_back(f); });
}

// After finish() the shard tasks have all retired, so these reads are
// quiescent; they still take merged_mutex_ because "finished and idle" is
// a protocol fact the static analysis cannot see, and the lock is
// uncontended here anyway (results are read once per run).
std::size_t ShardedPipeline::bin_count(std::size_t stream) const {
  if (!finished_) {
    throw std::logic_error("ShardedPipeline: results read before finish");
  }
  util::MutexLock lock(merged_mutex_);
  if (stream >= merged_.size()) {
    throw std::out_of_range("ShardedPipeline: bad stream index");
  }
  return merged_[stream].size();
}

std::span<const flowtable::FlowCounter> ShardedPipeline::bin_flows(
    std::size_t stream, std::size_t bin) const {
  if (!finished_) {
    throw std::logic_error("ShardedPipeline: results read before finish");
  }
  util::MutexLock lock(merged_mutex_);
  if (stream >= merged_.size() || bin >= merged_[stream].size()) {
    throw std::out_of_range("ShardedPipeline: bad stream/bin index");
  }
  return merged_[stream][bin];
}

}  // namespace flowrank::ingest
