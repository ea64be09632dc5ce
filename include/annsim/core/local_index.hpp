#pragma once
/// \file local_index.hpp
/// \brief Pluggable per-partition index — the paper's extensibility point:
/// "Our approach is extensible in that any algorithm can be used for local
/// indexing and searching instead of HNSW" (§VI).
///
/// Four implementations ship: HNSW (the paper's choice), an exact
/// brute-force scan, an exact VP-tree and compressed IVF-PQ. HNSW is the
/// segmented index (segment::SegmentedIndex): a fresh build is one frozen
/// segment plus an empty delta, so the default kind also absorbs streaming
/// writes. Workers build/serialize replicas through this interface, so
/// swapping the local algorithm never touches the distributed machinery.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "annsim/common/thread_pool.hpp"
#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/pq/ivfpq_index.hpp"
#include "annsim/simd/distance.hpp"
#include "annsim/vptree/vp_tree.hpp"

namespace annsim::segment {
class SegmentedIndex;
}

namespace annsim::core {

/// Which algorithm serves local k-NN inside each partition.
/// Byte 0 (a bare frozen HnswIndex image) is retired: engine files and
/// checkpoints carrying it are rejected.
enum class LocalIndexKind : std::uint8_t {
  kBruteForce = 1,  ///< exact linear scan (turns the engine into exact k-NN
                    ///< when combined with exact_routing)
  kVpTree = 2,      ///< exact metric-tree search
  kIvfPq = 3,       ///< compressed (IVF-PQ): tiny memory, recall ceiling
  /// Approximate, the paper's configuration, and live-mutable: frozen HNSW
  /// segments + a mutable HNSW delta + tombstones.
  kHnsw = 4,
  kSegmented = kHnsw,  ///< the same kind, named for its write tier
};

[[nodiscard]] const char* local_index_kind_name(LocalIndexKind kind) noexcept;

/// Per-partition search index. Implementations reference (not own) the
/// partition's Dataset, which must outlive them.
class LocalIndex {
 public:
  virtual ~LocalIndex() = default;

  /// k-NN over the partition; `ef` is a beam-width hint (HNSW) and ignored
  /// by exact implementations. Returns global ids, sorted by distance.
  [[nodiscard]] virtual std::vector<Neighbor> search(const float* query,
                                                     std::size_t k,
                                                     std::size_t ef) const = 0;

  [[nodiscard]] virtual LocalIndexKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Serialize the index structure (not the vectors) for replica shipping.
  [[nodiscard]] virtual std::vector<std::byte> to_bytes() const = 0;

  // ---- write plane (live mutability) ----------------------------------
  //
  // Read-only kinds (brute force, VP-tree, IVF-PQ) reject writes with a
  // typed Error naming the kind; only HNSW overrides these. The engine gates
  // its insert()/remove()/compact() API on the configured kind so the
  // failure surfaces at the master, not deep inside a worker thread.

  /// Absorb one vector under `id`. Throws for read-only kinds.
  virtual void insert(std::span<const float> vec, GlobalId id);

  /// Tombstone `id`; returns false when the id is not live here.
  /// Throws for read-only kinds.
  virtual bool erase(GlobalId id);

  /// Re-freeze delta + segments; returns false when a no-op.
  /// Throws for read-only kinds.
  virtual bool compact(ThreadPool* pool = nullptr);

  /// Rows waiting in the mutable delta tier (0 for read-only kinds).
  [[nodiscard]] virtual std::size_t delta_fill() const { return 0; }

  /// The underlying segmented index when kind() == kHnsw, else null —
  /// the hook checkpointing uses to snapshot segment parts incrementally.
  [[nodiscard]] virtual const segment::SegmentedIndex* segmented()
      const noexcept {
    return nullptr;
  }
};

/// Construction parameters shared by every kind.
struct LocalIndexParams {
  LocalIndexKind kind = LocalIndexKind::kHnsw;
  hnsw::HnswParams hnsw;    ///< used when kind == kHnsw
  pq::IvfPqParams ivfpq;    ///< used when kind == kIvfPq (L2 only)
  simd::Metric metric = simd::Metric::kL2;
  /// Delta capacity per HNSW replica (kind == kHnsw).
  std::size_t segment_delta_capacity = 1024;
  /// kHnsw only: store frozen segments as SQ8 codes with an exact float
  /// re-rank cache (see segment::SegmentedParams). L2 / InnerProduct only.
  bool quantize_frozen = false;
  /// Fraction of quantized rows kept as exact floats for re-ranking.
  double float_cache_fraction = 0.02;
};

/// Build a fresh index over `data` (runs the build immediately). A pool
/// parallelizes HNSW construction inside the worker, matching the paper's
/// multi-threaded local index builds.
[[nodiscard]] std::unique_ptr<LocalIndex> build_local_index(
    const data::Dataset* data, const LocalIndexParams& params,
    ThreadPool* pool = nullptr);

/// Reconstruct a replica index from `to_bytes()` output.
[[nodiscard]] std::unique_ptr<LocalIndex> local_index_from_bytes(
    std::span<const std::byte> bytes, const data::Dataset* data,
    const LocalIndexParams& params);

}  // namespace annsim::core
