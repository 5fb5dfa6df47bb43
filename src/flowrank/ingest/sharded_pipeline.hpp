// Sharded multi-threaded ingest (the ROADMAP's line-rate scaling step).
//
// The inherently sequential stages — pulling the packet stream and running
// the skip-based sampler, whose state machine must see every packet in
// order — stay on the driver thread.
// Everything downstream is embarrassingly parallel per flow: the driver
// partitions each time-ordered batch by flow-key hash % num_shards, so
// every flow's packets land on exactly one shard, and each shard worker
// owns a private FlowTable-backed BinnedClassifier. At each bin flush a
// shard folds its table into the bin's merged view; because shard key sets
// are disjoint and partitioning preserves per-flow packet order, the
// merged per-bin flow counters are bit-identical to a single-threaded
// classification of the same stream, at any shard count.
//
// Partition at source: the 64-bit key hash is computed exactly once per
// packet, at the driver, through the batch kernel
// (flowtable::hash_batch_table_ready), and carried alongside the record.
// Shard selection consumes it here, and the per-shard FlowTable probes with it
// directly (the hashed add_batch overload), so no stage downstream ever
// re-hashes a key.
//
// Shard hand-off runs over single-producer single-consumer rings
// (ingest/spsc_ring.hpp): the driver is the only writer and the shard's
// drain task — at most one live at a time — the only reader, so steady-
// state pushes and pops are two acquire/release index updates on
// separate cache lines, no mutex anywhere on the packet path. The
// OverloadPolicy semantics sit on top of the rings: kShed drops the
// chunk when a ring is full; kBlock parks the driver on a slow-path
// condvar that the drain task only signals when a waiter flag says
// someone is parked. Drain-task scheduling is a seq_cst flag handshake
// (enqueue-side exchange vs retire-side store + ring re-check) so a
// chunk pushed while a task is retiring is never stranded.
//
// Disjointness is also what makes the merge cheap: no two shards ever
// contribute the same key to a bin, so the merged view is a plain
// concatenation of per-shard snapshots (memcpy-class work per bin) rather
// than a second round of hash probing. FlowTable::merge_from remains the
// primitive for callers that want a probe-able merged table.
//
// Since the exec layer extraction the pipeline spawns no threads of its
// own: shard work runs as cooperative drain tasks on the shared
// exec::TaskPool (or a caller-provided pool). A shard schedules at most
// one drain task at a time, and the task pops its ring in FIFO order, so
// each shard's packets are still classified sequentially in arrival
// order — the bit-identity argument is untouched.
//
// This is the hash-shard-and-merge shape of multi-core packet pipelines
// (cf. pktgen's per-core generators and heyp's sharded host agents),
// specialized to the paper's binning method.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "flowrank/exec/task_pool.hpp"
#include "flowrank/flowtable/binned_classifier.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/ingest/spsc_ring.hpp"
#include "flowrank/packet/records.hpp"
#include "flowrank/util/sync.hpp"
#include "flowrank/util/thread_annotations.hpp"

namespace flowrank::ingest {

/// What add_batch does when a shard ring is full.
enum class OverloadPolicy {
  /// Block the driver until the worker catches up (lossless; the default
  /// and the only mode batch experiments use — results stay bit-identical
  /// at any shard count).
  kBlock,
  /// Drop the chunk and count it. A monitor that must keep up with the
  /// link pairs this with sampling-rate degradation so the loss is a
  /// declared, counted rate change instead of silent tail drops.
  kShed,
};

/// Loss and pressure counters, readable at any time from any thread.
struct OverloadStats {
  std::uint64_t queue_full_events = 0;  ///< enqueues that found a full ring
  std::uint64_t shed_chunks = 0;        ///< chunks dropped under kShed
  std::uint64_t shed_packets = 0;       ///< packets inside those chunks
};

struct ShardedPipelineConfig {
  /// Shard workers; each owns one FlowTable per stream. 0 = one shard per
  /// hardware thread. Capped at exec::TaskPool::kMaxParallelism — beyond
  /// that the constructor throws instead of queueing thousands of tasks.
  std::size_t num_shards = 1;
  /// Independent packet streams classified side by side (e.g. stream 0 =
  /// unsampled truth, stream 1 = sampled). >= 1.
  std::size_t num_streams = 1;
  /// Measurement-interval length; derive via trace::bin_length_ns. > 0.
  std::int64_t bin_ns = 0;
  /// Options for every per-shard table (initial_capacity is per shard).
  flowtable::FlowTable::Options table_options;
  /// Backpressure: add_batch blocks (kBlock) or drops (kShed) once this
  /// many chunks sit in a shard's ring.
  std::size_t max_queue_chunks = 8;
  /// Full-ring behavior; see OverloadPolicy.
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// kBlock only: longest time add_batch may wait on one full shard ring
  /// before declaring the shard wedged and throwing
  /// flowrank::Error(kStalled). 0 = wait forever (batch semantics).
  std::uint32_t block_deadline_ms = 0;
  /// Packets staged per (stream, shard) before a chunk is handed to the
  /// worker. Staging across add_batch calls amortizes the ring/wakeup
  /// cost per chunk over many packets; correctness is unaffected (each
  /// worker still sees its packets in arrival order), only the latency of
  /// bin flushes relative to add_batch calls changes.
  std::size_t chunk_packets = 8192;
  /// Pool the shard tasks run on; nullptr = exec::TaskPool::shared().
  /// Must outlive the pipeline. (The benchmark suite passes a private
  /// throwaway pool to measure exactly what per-run thread spawn costs.)
  exec::TaskPool* pool = nullptr;
  /// Streaming consumer for long-running monitors: when set, each shard's
  /// per-bin table is handed to this callback at flush time — on the
  /// flushing worker's thread, concurrently across shards, so it must be
  /// thread-safe — and NO per-bin snapshots are retained (bin_flows()
  /// stays empty, memory stays bounded by the live tables). When unset,
  /// flushes are concatenated into the per-bin views served by
  /// bin_flows() after finish().
  std::function<void(std::size_t shard, std::size_t stream, std::size_t bin,
                     const flowtable::FlowTable& table)>
      on_shard_bin;
};

/// Driver-side facade over the shard workers. Not thread-safe itself: one
/// driver thread calls add_batch()/finish(); results are read after
/// finish() returns.
class ShardedPipeline {
 public:
  /// Sets up the shards and grows the pool to num_shards workers. Throws
  /// std::invalid_argument on a bad config.
  explicit ShardedPipeline(ShardedPipelineConfig config);

  /// Drains the shards (finish() is called if it has not been). A shard
  /// error is swallowed here — the destructor is noexcept — so success
  /// paths must call finish() explicitly to observe it.
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Partitions a time-ordered batch of `stream` by flow-key hash (one
  /// hash per packet, carried with the record from here on) and
  /// enqueues the per-shard slices. Blocks when a shard's ring is full.
  /// Batches of each stream must arrive in non-decreasing timestamp order.
  void add_batch(std::size_t stream,
                 std::span<const packet::PacketRecord> batch);

  /// Drains the rings and flushes every shard's final bin. Must be
  /// called before reading results. Idempotent. Rethrows the first
  /// exception a shard task raised, if any.
  void finish();

  /// Epoch rotation for continuous monitors: drains every shard ring
  /// (blocking the driver until workers retire), then flushes every bin
  /// strictly before `next_bin` on every classifier — tables clear and
  /// are reused, exactly the batch path's boundary behavior. add_batch
  /// may continue afterwards with packets in bins >= `next_bin`. Rethrows
  /// the first shard-task exception, if any.
  void rotate_epoch(std::size_t next_bin);

  /// Overload counters so far (atomic snapshot, any thread, any time).
  [[nodiscard]] OverloadStats overload_stats() const noexcept;

  /// Bins seen by `stream` (valid after finish()): one past the highest
  /// bin any of its packets landed in, 0 for a packet-less stream (always
  /// 0 when a streaming on_shard_bin callback consumed the flushes).
  [[nodiscard]] std::size_t bin_count(std::size_t stream) const;

  /// Merged per-bin view: every shard's flows for (stream, bin) — each
  /// shard's completed subflows followed by its active entries, exactly
  /// the multiset a single-threaded table's for_each_all() yields. Shard
  /// order within the span is unspecified (it depends on flush timing);
  /// contents are not.
  [[nodiscard]] std::span<const flowtable::FlowCounter> bin_flows(
      std::size_t stream, std::size_t bin) const;

  /// The configuration in effect (num_shards resolved, pool filled in).
  [[nodiscard]] const ShardedPipelineConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One partitioned slice: records plus their carried table-ready key
  /// hashes (parallel vectors).
  struct Batch {
    std::vector<packet::PacketRecord> packets;
    std::vector<std::uint64_t> hashes;

    void clear() noexcept {
      packets.clear();
      hashes.clear();
    }
  };

  struct Chunk {
    std::uint32_t stream = 0;
    Batch data;
  };

  struct Shard {
    Shard(std::size_t ring_capacity, std::size_t spare_capacity)
        : ring(ring_capacity), free_ring(spare_capacity) {}

    /// Driver -> drain-task chunk hand-off (the hot path).
    SpscRing<Chunk> ring;
    /// Drain-task -> driver buffer recycling (roles reversed: the drain
    /// task produces, the driver consumes). Overflow simply frees the
    /// buffer.
    SpscRing<Batch> free_ring;
    /// True while a drain task is queued or running for this shard. At
    /// most one at a time, so the shard's chunks are classified strictly
    /// in FIFO order — the invariant bit-identity rests on. seq_cst
    /// handshake with the ring emptiness re-check (see drain_shard /
    /// enqueue); own line so retire/schedule flips never bounce the ring
    /// indices.
    alignas(kCacheLineBytes) std::atomic<bool> task_active{false};
    /// Nonzero while the driver is parked on `wakeup` (full-ring block
    /// or drain_all). The drain task checks it after every pop and only
    /// then takes the mutex to notify, keeping the hot path lock-free.
    alignas(kCacheLineBytes) std::atomic<std::uint32_t> driver_waiting{0};
    /// Slow-path wait state only; never touched on the packet path.
    util::Mutex mutex;
    util::CondVar wakeup;
    /// One classifier per stream, owned (and only touched) by the drain
    /// task — which runs exclusively, so this is single-threaded state
    /// handed from pool worker to pool worker through the task_active
    /// release/acquire edge (plus the pool's own submit ordering).
    /// Exclusive hand-off, not mutual exclusion: FR_GUARDED_BY cannot
    /// express it — TSan checks it dynamically.
    std::vector<flowtable::BinnedClassifier> classifiers;
  };

  /// Pops and classifies chunks until the ring is empty, then retires.
  void drain_shard(std::size_t shard_index);
  /// Classifies one chunk. Errors land in first_error_.
  void classify_chunk(Shard& shard, const Chunk& chunk);
  /// Hands pending_[stream][shard] to the worker and replaces it with a
  /// recycled buffer.
  void flush_pending(std::size_t stream, std::size_t shard_index);
  void enqueue(std::size_t shard_index, std::size_t stream, Batch&& data);
  /// kBlock slow path: parks on the shard condvar until the chunk fits
  /// (or the block deadline declares the shard wedged).
  void block_until_pushed(std::size_t shard_index, Chunk& chunk);
  [[nodiscard]] Batch take_buffer(Shard& shard);
  void on_bin_flush(std::size_t shard, std::size_t stream, std::size_t bin,
                    const flowtable::FlowTable& table);
  /// Blocks until every ringed chunk is classified and every drain task
  /// has retired (driver thread only).
  void drain_all();
  /// Rethrows and clears the first shard-task exception, if any.
  void rethrow_pending_error();

  ShardedPipelineConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Driver-side staging: pending_[stream][shard] accumulates partitioned
  /// packets (and carried hashes) until chunk_packets are ready.
  std::vector<std::vector<Batch>> pending_;
  /// Driver-local recycled buffers (shed chunks land here; take_buffer
  /// checks it before the shard's free ring).
  std::vector<Batch> driver_spares_;
  /// add_batch workspace for the batch key/hash computation.
  std::vector<packet::FlowKey> scratch_keys_;
  std::vector<std::uint64_t> scratch_hashes_;

  mutable util::Mutex merged_mutex_;
  /// merged_[stream][bin]: concatenated per-shard flow snapshots, built
  /// up as shards flush; grown under the lock. Unused (left empty) when
  /// config_.on_shard_bin streams flushes out instead.
  std::vector<std::vector<std::vector<flowtable::FlowCounter>>> merged_
      FR_GUARDED_BY(merged_mutex_);
  /// First exception thrown inside a shard task; rethrown by finish().
  util::Mutex error_mutex_;
  std::exception_ptr first_error_ FR_GUARDED_BY(error_mutex_);
  bool finished_ = false;

  // Overload counters: written by the driver only, read from any thread
  // via overload_stats(); bumped on overload events, far off the packet
  // path, so they share a line deliberately.
  std::atomic<std::uint64_t> queue_full_events_{0};  // shared-cacheline-ok: driver-written stats counter, off the hot path
  std::atomic<std::uint64_t> shed_chunks_{0};        // shared-cacheline-ok: driver-written stats counter, off the hot path
  std::atomic<std::uint64_t> shed_packets_{0};       // shared-cacheline-ok: driver-written stats counter, off the hot path
};

}  // namespace flowrank::ingest
