#pragma once
/// \file protocol.hpp
/// \brief Wire formats of the master/worker search protocol (Algorithms 3-5)
/// and the layout of the master's one-sided result window (§IV-C1, Fig 2).

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "annsim/common/serialize.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/common/types.hpp"
#include "annsim/mpi/mpi.hpp"

namespace annsim::core {

// Message tags of the search protocol.
inline constexpr mpi::Tag kTagQuery = 1;    ///< master/owner -> worker: one (q, d) job
inline constexpr mpi::Tag kTagResult = 2;   ///< worker -> reply_to: local k-NN (two-sided);
                                            ///< owner -> master: merged answer
inline constexpr mpi::Tag kTagEoq = 3;      ///< master -> worker: End of Queries
inline constexpr mpi::Tag kTagDone = 4;     ///< worker -> master: all jobs finished
inline constexpr mpi::Tag kTagTree = 5;     ///< worker 0 -> master: serialized VP tree
inline constexpr mpi::Tag kTagOwnerBatch = 8;   ///< master -> owner: its query share
inline constexpr mpi::Tag kTagReplica = 11;     ///< worker -> worker: partition replica
inline constexpr mpi::Tag kTagHeartbeat = 12;   ///< worker -> master: liveness beacon

// Write-plane control tags (streaming mutability). Both are reserved: they
// carry state-changing orders whose loss would silently diverge the
// replicas, so plain send() on them is a checker violation and the fault
// injector treats them as reliable (never dropped or delayed — though a dead
// worker still never receives them).
inline constexpr mpi::Tag kTagWrite = 13;     ///< master -> worker: WriteOrder
inline constexpr mpi::Tag kTagWriteAck = 15;  ///< worker -> master: WriteAck

/// The engine's one blocking-or-deadline receive: a plain blocking recv when
/// `timeout` is zero, otherwise recv_for bounded by `timeout` (nullopt when
/// nothing matched in time).
[[nodiscard]] std::optional<mpi::Message> recv_within(
    mpi::Comm& world, int source, mpi::Tag tag,
    std::chrono::microseconds timeout);

/// One dispatched search job: query `query_id` on partition `partition`.
struct QueryJob {
  std::uint32_t query_id = 0;
  PartitionId partition = kInvalidPartition;
  std::uint32_t k = 0;
  std::uint32_t ef = 0;          ///< 0 = index default
  std::uint32_t reply_to = 0;    ///< comm rank that merges the result
  std::vector<float> query;      ///< the query vector
};

[[nodiscard]] std::vector<std::byte> encode_query_job(const QueryJob& job);
[[nodiscard]] QueryJob decode_query_job(std::span<const std::byte> bytes);

/// A worker's local k-NN result for one job.
struct LocalResult {
  std::uint32_t query_id = 0;
  PartitionId partition = kInvalidPartition;
  std::vector<Neighbor> neighbors;  ///< sorted ascending by distance
};

[[nodiscard]] std::vector<std::byte> encode_local_result(const LocalResult& r);
[[nodiscard]] LocalResult decode_local_result(std::span<const std::byte> bytes);

/// Completion notice: how many jobs this worker processed (Fig 4(b) data).
struct DoneNotice {
  std::uint64_t jobs_processed = 0;
  double compute_seconds = 0.0;  ///< time spent in local searches
  double comm_seconds = 0.0;     ///< time spent in send/accumulate calls
  double route_seconds = 0.0;    ///< owner-side routing (multiple-owner mode)
};

// ---- write plane ------------------------------------------------------

/// Everything one worker applies in one write round — insert(), remove()
/// and compact() alike. One order per live worker per round; the worker
/// absorbs the rows, places the tombstones, logs the round mark, compacts
/// when asked, and commits its WAL once before acking.
struct WriteOrder {
  /// A streamed insert addressed to a hosted partition's segmented replica.
  struct Row {
    PartitionId partition = kInvalidPartition;
    GlobalId id = kInvalidGlobalId;
    /// Master-assigned global log sequence number. Every replica of one row
    /// logs the same LSN, so a checkpoint watermark taken on any worker is
    /// comparable with any worker's WAL at replay time.
    std::uint64_t lsn = 0;
    std::vector<float> vec;
  };
  std::vector<Row> rows;
  /// Ids to tombstone, sent to every alive worker (the master has no
  /// id -> partition map; a worker not hosting an id simply ignores it).
  std::vector<GlobalId> ids;
  /// Parallel to `ids`: the master-assigned LSN of each tombstone (same
  /// value on every worker, see Row::lsn).
  std::vector<std::uint64_t> lsns;
  /// LSN of a compaction order for every hosted replica; 0 = none.
  std::uint64_t compact_lsn = 0;
};

[[nodiscard]] std::vector<std::byte> encode_write_order(const WriteOrder& o);
[[nodiscard]] WriteOrder decode_write_order(std::span<const std::byte> bytes);

/// Worker's acknowledgement of one WriteOrder.
struct WriteAck {
  std::uint64_t inserted = 0;        ///< rows absorbed into delta tiers
  std::uint64_t erased = 0;          ///< tombstones that hit a live id
  std::uint64_t max_delta_fill = 0;  ///< fullest delta across hosted replicas
  std::uint64_t compactions = 0;     ///< replicas compacted by this order
};

[[nodiscard]] std::vector<std::byte> encode_write_ack(const WriteAck& a);
[[nodiscard]] WriteAck decode_write_ack(std::span<const std::byte> bytes);

// ---- one-sided result window -----------------------------------------
//
// The master exposes one fixed-size slot per query:
//   [ u32 merged_count | u32 pad | u64 partition_mask[W] | Neighbor[k] ]
// Workers fold their local k-NN into a slot with a single atomic
// get_accumulate whose merge op performs the sorted k-NN merge and bumps
// merged_count. The master knows |F(q)| per query, so a slot is final once
// merged_count reaches it.
//
// The partition mask (W = ceil(n_partitions / 64) words) records which
// partitions have been merged. It makes failover retries idempotent: a worker
// that died mid-batch may already have landed some of its merges, and a
// replica re-running the same job must not double-merge the partition. The
// merge op skips an origin whose partition bit is already set, and the
// master reads the mask both to poll progress and to attribute per-query
// coverage. Every layout carries the mask: the slot functions below reject
// n_partitions == 0 with annsim::Error.

struct SlotLayout {
  std::size_t k = 0;
  std::size_t n_partitions = 0;  ///< must be nonzero (mask width)

  [[nodiscard]] std::size_t mask_words() const noexcept {
    return (n_partitions + 63) / 64;
  }
  [[nodiscard]] std::size_t header_bytes() const noexcept {
    return sizeof(std::uint64_t) + mask_words() * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t slot_bytes() const noexcept {
    return header_bytes() + k * sizeof(Neighbor);
  }
  [[nodiscard]] std::size_t window_bytes(std::size_t n_queries) const noexcept {
    return n_queries * slot_bytes();
  }
  [[nodiscard]] std::size_t slot_offset(std::size_t query_id) const noexcept {
    return query_id * slot_bytes();
  }
};

/// True when `mask` (slot partition-mask words) has partition `p`'s bit set.
[[nodiscard]] bool mask_contains(std::span<const std::uint64_t> mask,
                                 PartitionId p) noexcept;

/// Serialize a local result into the accumulate origin-buffer format
/// (count=1, the searched partition's mask bit, then exactly k neighbors,
/// padded with +inf sentinels). `partition` must identify the searched
/// partition so the merge can deduplicate failover retries.
[[nodiscard]] std::vector<std::byte> encode_slot_update(
    std::span<const Neighbor> neighbors, const SlotLayout& layout,
    PartitionId partition);

/// The merge op passed to Window::get_accumulate: k-NN-merge the origin
/// neighbors into the target slot and add the origin's merged_count. An
/// origin whose partition bit is already set in the target is dropped
/// (idempotent retry).
[[nodiscard]] mpi::Window::MergeOp knn_slot_merge(const SlotLayout& layout);

/// Slot header only (cheap poll): merged count plus partition mask.
struct SlotHeader {
  std::uint32_t merged_count = 0;
  std::vector<std::uint64_t> mask;

  [[nodiscard]] bool contains_partition(PartitionId p) const noexcept {
    return mask_contains(mask, p);
  }
};
[[nodiscard]] SlotHeader decode_slot_header(std::span<const std::byte> slot,
                                            const SlotLayout& layout);

/// Decode a final slot into (merged_count, partition mask, sorted neighbors
/// without sentinels).
struct DecodedSlot {
  std::uint32_t merged_count = 0;
  std::vector<std::uint64_t> mask;
  std::vector<Neighbor> neighbors;

  [[nodiscard]] bool contains_partition(PartitionId p) const noexcept {
    return mask_contains(mask, p);
  }
};
[[nodiscard]] DecodedSlot decode_slot(std::span<const std::byte> slot,
                                      const SlotLayout& layout);

}  // namespace annsim::core
