#pragma once
/// \file hnsw_index.hpp
/// \brief From-scratch HNSW (Malkov & Yashunin, TPAMI 2018) — the local
/// per-partition index of the paper (§III-A).
///
/// Implements the published algorithm: exponentially-distributed node levels
/// (skip-list style promotion), greedy descent through the upper layers,
/// beam search (`ef`) in the bottom layer, and the "heuristic" neighbor
/// selection (Algorithm 4 of the HNSW paper) that keeps the graph navigable.
/// Insertions are thread-safe (per-node link mutexes + entry-point mutex),
/// as the paper relies on multi-threaded local construction.
///
/// One adjacency store and one beam search serve the whole lifecycle. The
/// constructor draws every node's level from the seed and lays out a
/// fixed-capacity FlatGraph; insert() writes its blocks in place, and
/// searches issued while inserts may run copy each list under its node's
/// mutex. freeze() (called by build()) only publishes the frozen flag: from
/// then on searches read the same blocks in place with no copy and no lock.
/// Every search, construction's included, runs hnsw::beam_layer on pooled
/// scratch with the batched distance kernels, and ranks candidates in
/// squared-L2 space, deferring the `sqrt` to result emission. The beam
/// keeps one candidate pool sorted by (dist, node), so search() emits its
/// first k entries and insert() selects neighbours from it as they are.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/common/thread_pool.hpp"
#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/hnsw/flat_graph.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::hnsw {

struct HnswParams {
  /// Max out-degree per node on layers > 0 (layer 0 allows 2*M).
  /// Fig 6 of the paper sweeps M over {8, 16, 32, 64}; 16 is the default.
  std::size_t M = 16;
  /// Beam width during construction.
  std::size_t ef_construction = 200;
  /// Default beam width during search (can be overridden per query).
  std::size_t ef_search = 64;
  /// Level-assignment multiplier; 0 means the canonical 1/ln(M).
  double level_mult = 0.0;
  std::uint64_t seed = 1337;
  simd::Metric metric = simd::Metric::kL2;
};

/// Thrown by HnswIndex::insert once the index has been frozen into its
/// read-only flat form. A typed error (rather than a generic check failure)
/// so writable wrappers — notably segment::SegmentedIndex, whose delta must
/// never be frozen while it is still absorbing inserts — can distinguish
/// "index is in the wrong lifecycle state" from genuine precondition bugs.
class FrozenIndexError : public Error {
 public:
  explicit FrozenIndexError(const std::string& what) : Error(what) {}
};

/// Graph statistics for diagnostics and tests.
struct HnswStats {
  std::size_t n_nodes = 0;
  int max_level = -1;
  std::vector<std::size_t> nodes_per_level;
  double avg_degree_level0 = 0.0;
};

class HnswIndex {
 public:
  /// The index references `data` (not owned); it must outlive the index.
  HnswIndex(const data::Dataset* data, HnswParams params);
  ~HnswIndex();

  HnswIndex(HnswIndex&&) noexcept;
  HnswIndex& operator=(HnswIndex&&) noexcept;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  /// Insert every dataset row (multi-threaded when a pool is supplied), then
  /// freeze().
  void build(ThreadPool* pool = nullptr);

  /// Insert one dataset row (thread-safe; rows may arrive in any order but
  /// each row must be inserted exactly once). Throws once the index is
  /// frozen.
  void insert(LocalId node);

  /// Mark the graph immutable: later searches read adjacency in place
  /// without locks, and insert() throws. Copies nothing. Requires
  /// quiescence: no concurrent insert() or search() calls may be in flight.
  /// Idempotent; called by build().
  void freeze();

  /// True once freeze() has run (or the index was decoded from bytes).
  [[nodiscard]] bool is_frozen() const noexcept;

  /// The frozen adjacency (requires is_frozen()). The quantized tier
  /// reuses this exact topology to traverse SQ8 code rows: the graph is
  /// built once on the full-float rows at freeze time, then searched with
  /// the asymmetric uint8 kernels.
  [[nodiscard]] const FlatGraph& flat_graph() const;

  /// k-NN search. `ef` = 0 uses params().ef_search; effective beam width is
  /// max(ef, k). Returned distances follow the DistanceComputer convention;
  /// ids are the dataset's *global* ids, ready for cross-partition merging.
  [[nodiscard]] std::vector<Neighbor> search(const float* query, std::size_t k,
                                             std::size_t ef = 0) const;

  /// Batched k-NN over a query set, optionally multi-threaded (searches are
  /// read-only and safe to run concurrently).
  [[nodiscard]] data::KnnResults search_batch(const data::Dataset& queries,
                                              std::size_t k, std::size_t ef = 0,
                                              ThreadPool* pool = nullptr) const;

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] const HnswParams& params() const noexcept { return params_; }
  [[nodiscard]] const data::Dataset& dataset() const noexcept { return *data_; }
  [[nodiscard]] HnswStats stats() const;

  /// Serialize the graph (not the vectors) to a file; `load` re-attaches to
  /// the same dataset.
  void save(const std::string& path) const;
  static HnswIndex load(const std::string& path, const data::Dataset* data);

  /// In-memory (de)serialization — used to ship replica indexes between
  /// ranks during partition replication (§IV-C2). `from_bytes` decodes into
  /// a frozen index and throws annsim::Error on a malformed image.
  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  static HnswIndex from_bytes(std::span<const std::byte> bytes,
                              const data::Dataset* data);

 private:
  struct Impl;

  HnswIndex(const data::Dataset* data, HnswParams params, std::unique_ptr<Impl> impl);

  const data::Dataset* data_;
  HnswParams params_;
  std::unique_ptr<Impl> impl_;
};

/// Exact linear-scan index with the same search interface; used as the
/// differential-testing oracle and as a drop-in local index (the paper notes
/// "any algorithm can be used for local indexing and searching").
class BruteForceIndex {
 public:
  BruteForceIndex(const data::Dataset* data, simd::Metric metric)
      : data_(data), dist_(metric, data->dim()) {}

  [[nodiscard]] std::vector<Neighbor> search(const float* query,
                                             std::size_t k) const;

  [[nodiscard]] std::size_t size() const noexcept { return data_->size(); }

 private:
  const data::Dataset* data_;
  simd::DistanceComputer dist_;
};

}  // namespace annsim::hnsw
