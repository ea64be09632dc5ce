#pragma once
/// \file sq_segment.hpp
/// \brief Quantized frozen segment: SQ8 code rows + the frozen HNSW topology
/// + an exact float re-rank cache for the hottest rows.
///
/// This is the compressed counterpart of SegmentedIndex's (Dataset,
/// HnswIndex) frozen segment. At freeze time the full-float rows are still
/// in hand, so the segment:
///
///  1. trains an SqCodec (per-dimension min/max affine) and encodes every
///     row into a 64-byte-aligned code slab — the only per-row storage the
///     segment keeps resident (1 byte/dim instead of 4);
///  2. builds the standard HNSW graph *on the floats* and keeps its
///     FlatGraph. Search runs the float tier's own beam (hnsw::beam_layer)
///     over that graph; only the batched distance function differs, the
///     fused uint8 kernels over code rows. The beam's pool, the nearest ef
///     candidates ascending by (dist, node), goes to the re-rank as is;
///  3. copies the hottest `float_cache_fraction` of rows, as full floats,
///     into the *re-rank cache*. "Hottest" is measured access frequency when
///     the freeze happens during a major compaction (per-row hit counters
///     from the previous epoch travel through the merge); on a cold build it
///     falls back to graph hubness (upper-layer membership, then layer-0
///     degree), which is what beam search hits most.
///
/// Every search traverses codes, then *re-ranks* the whole candidate list
/// before emission: candidates whose float row is cached get their distance
/// recomputed exactly; the rest keep the (already tight, max_abs_error-
/// bounded) asymmetric SQ8 distance. Per-row access counters are bumped on
/// every re-rank so the next compaction re-selects the cache from measured
/// traffic.
///
/// Thread-safety: search()/scan() are const and safe concurrently (access
/// counters are relaxed atomics); build and deserialization must complete
/// before the first search, which SegmentedIndex's write lock guarantees.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "annsim/common/aligned_buffer.hpp"
#include "annsim/common/thread_pool.hpp"
#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/hnsw/beam.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/quant/sq_codec.hpp"

namespace annsim::quant {

struct SqSegmentParams {
  /// Graph construction / default search parameters (metric included; only
  /// kL2 and kInnerProduct have uint8 kernels).
  hnsw::HnswParams hnsw;
  /// Fraction of rows kept as exact floats for re-ranking, in [0, 1].
  /// The ~1-5% range recovers most of the recall the codes give up while
  /// keeping the memory win near the full 4x.
  double float_cache_fraction = 0.02;
};

/// Re-rank traffic counters (diagnostics; monotonically increasing).
struct SqSegmentCounters {
  std::uint64_t rerank_exact = 0;  ///< candidates re-scored from the cache
  std::uint64_t rerank_coded = 0;  ///< candidates kept at SQ8 distance
};

class SqSegment {
 public:
  /// Quantize `rows` into a frozen compressed segment. `heat[i]`, when
  /// provided (size == rows.size()), is the measured access count of row i
  /// and drives the re-rank cache selection; empty means cold build
  /// (hubness fallback).
  static std::unique_ptr<SqSegment> build(
      const data::Dataset& rows, const SqSegmentParams& params,
      ThreadPool* pool = nullptr, std::span<const std::uint64_t> heat = {});

  SqSegment(const SqSegment&) = delete;
  SqSegment& operator=(const SqSegment&) = delete;

  /// Graph k-NN over codes (beam width ef, 0 = params.hnsw.ef_search) with
  /// exact re-rank of the candidate list. Distances follow the library-wide
  /// ranking convention; ids are global.
  [[nodiscard]] std::vector<Neighbor> search(const float* query, std::size_t k,
                                             std::size_t ef = 0) const;

  /// Brute-force k-NN: one contiguous batched-kernel sweep over the code
  /// slab, then the same exact re-rank on the overfetched candidate list.
  [[nodiscard]] std::vector<Neighbor> scan(const float* query,
                                           std::size_t k) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t dim() const noexcept { return codec_.dim(); }
  [[nodiscard]] GlobalId id(std::size_t row) const noexcept {
    return ids_[row];
  }
  [[nodiscard]] std::span<const GlobalId> ids() const noexcept { return ids_; }
  [[nodiscard]] const SqCodec& codec() const noexcept { return codec_; }
  [[nodiscard]] const SqSegmentParams& params() const noexcept {
    return params_;
  }

  /// Reconstruct row `row`: exact floats when cached, decoded codes
  /// otherwise. `out` receives dim() floats.
  void reconstruct(std::size_t row, float* out) const;

  /// Rows whose exact float copy is resident in the re-rank cache.
  [[nodiscard]] std::size_t cached_rows() const noexcept { return n_cached_; }

  /// Resident bytes of the compressed row plane: code slab + re-rank cache
  /// + cache slot table + codebook. (The graph is excluded: the float tier
  /// carries an identical one.)
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
  /// What the float tier would keep resident for the same rows (padded
  /// Dataset row storage), for like-for-like compression reporting.
  [[nodiscard]] std::size_t float_bytes() const noexcept;

  /// Snapshot of the per-row access counters (re-rank hits since build or
  /// restore). Keyed by row index; pair with ids() to survive a merge.
  [[nodiscard]] std::vector<std::uint64_t> access_counts() const;

  [[nodiscard]] SqSegmentCounters counters() const noexcept;

  /// Codes + codebook + graph + cached float rows. Deterministic: identical
  /// logical state yields identical bytes (access counters excluded — they
  /// reset on restore).
  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  static std::unique_ptr<SqSegment> from_bytes(std::span<const std::byte> bytes,
                                               const SqSegmentParams& params);

 private:
  SqSegment() = default;

  void select_cache(const data::Dataset& rows,
                    std::span<const std::uint64_t> heat);
  /// Search-space distances (squared L2 / 1 - ip) of code rows
  /// `first + rows[i]` (or `first + i` when rows is null) into out[0, m).
  void code_dist_batch(const float* query, std::size_t first,
                       const std::uint32_t* rows, std::size_t m,
                       float* out) const noexcept;
  /// Re-rank candidates (search-space distances) and emit the top k in
  /// ranking space; bumps access counters.
  [[nodiscard]] std::vector<Neighbor> rerank_emit(
      const float* query, std::span<const hnsw::Cand> cands,
      std::size_t k) const;

  SqSegmentParams params_;
  SqCodec codec_;
  std::size_t n_ = 0;
  std::vector<GlobalId> ids_;
  AlignedBuffer<std::uint8_t> codes_;  ///< n_ rows of codec_.code_stride()
  hnsw::FlatGraph graph_;

  /// Re-rank cache: float rows at Dataset padding, slot table row -> cache
  /// index (kInvalidLocalId = not cached).
  std::size_t n_cached_ = 0;
  std::size_t cache_stride_ = 0;
  AlignedBuffer<float> cache_rows_;
  std::vector<std::uint32_t> cache_slot_;

  mutable std::vector<std::atomic<std::uint32_t>> access_;
  mutable std::atomic<std::uint64_t> rerank_exact_{0};
  mutable std::atomic<std::uint64_t> rerank_coded_{0};
  /// Pooled beam scratch, shared by search() and scan().
  mutable hnsw::BeamPool pool_;
};

}  // namespace annsim::quant
