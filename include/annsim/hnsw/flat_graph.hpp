#pragma once
/// \file flat_graph.hpp
/// \brief The one HNSW adjacency store: fixed-capacity neighbour blocks laid
/// out once, written in place by construction and read in place by search.
///
/// Node levels are fixed before any link exists (HnswIndex derives them from
/// the seed and the node id; a decoded image carries them), so every
/// (node, layer) block gets its final address up front:
///
///   l0_:     [c|n0 .. n_{2M-1}][c|...] ...   one block per node, stride 2M+1
///   upper_:  [c|n0 .. n_{M-1}] ...           layers 1..level(v) of each node,
///                                            contiguous from upper_start_[v]
///
/// Each block is a LocalId count followed by up to its capacity of neighbour
/// ids, in exactly the order construction wrote them. `HnswIndex::insert`
/// rewrites blocks under the node's mutex; once the index is frozen the
/// blocks are immutable and `neighbors()` returns spans into them with no
/// copy and no lock. Freezing therefore moves no adjacency, and the ANN1 /
/// ANQ1 images are written from and read into this same layout.

#include <cstdint>
#include <span>
#include <vector>

#include "annsim/common/serialize.hpp"
#include "annsim/common/types.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::hnsw {

class FlatGraph {
 public:
  /// Largest number of layers a node may have; HnswIndex rejects parameters
  /// that could draw a taller node, and the image reader rejects such nodes.
  static constexpr std::uint32_t kMaxLayers = 64;
  /// Largest degree parameter M (layer-0 blocks hold 2M links).
  static constexpr std::size_t kMaxM = 1024;

  FlatGraph() = default;

  /// Empty blocks for nodes whose levels are `layout[v]` (capacity 2M at
  /// layer 0, M above). Every node starts unpublished (level -1).
  FlatGraph(std::size_t M, std::span<const int> layout);

  /// Read the graph part of an ANN1/ANQ1 image (i32 max level, u32 entry
  /// point, then per node a u32 layer count and per layer a u64-length
  /// LocalId array) for `n` nodes of degree parameter `M`. Throws
  /// annsim::Error on any count above its block capacity or the bytes left,
  /// a neighbour id or entry point >= n, a node taller than kMaxLayers, or
  /// an M outside [2, kMaxM].
  static FlatGraph read(BinaryReader& r, std::size_t n, std::size_t M);

  /// Write the graph part of an image in the format read() accepts.
  void write(BinaryWriter& w) const;

  void set_entry(LocalId entry_point, int max_level) noexcept {
    entry_point_ = entry_point;
    max_level_ = max_level;
  }
  /// Publish `v` at `level` (at most its layout level): its blocks up to
  /// `level` become reachable through neighbors().
  void set_level(LocalId v, int level) noexcept { level_[v] = level; }

  [[nodiscard]] std::size_t size() const noexcept { return level_.size(); }
  /// Links a block at `layer` can hold; capacity(0) is the longest list.
  [[nodiscard]] std::size_t capacity(int layer) const noexcept {
    return layer == 0 ? 2 * M_ : M_;
  }
  [[nodiscard]] LocalId entry_point() const noexcept { return entry_point_; }
  [[nodiscard]] int max_level() const noexcept { return max_level_; }
  /// Published top layer of `v` (-1 = not inserted).
  [[nodiscard]] int level(LocalId v) const noexcept { return level_[v]; }

  /// Layer-0 neighbours of `v` — the beam-search hot path.
  [[nodiscard]] std::span<const LocalId> neighbors0(LocalId v) const noexcept {
    const LocalId* b = l0_.data() + v * (2 * M_ + 1);
    return {b + 1, b[0]};
  }

  /// Neighbours of `v` at any layer (empty above v's published level).
  [[nodiscard]] std::span<const LocalId> neighbors(LocalId v, int layer) const noexcept {
    if (layer == 0) return neighbors0(v);
    if (layer > level_[v]) return {};
    const LocalId* b = upper_.data() + upper_at(v, layer);
    return {b + 1, b[0]};
  }

  /// Overwrite v's list at `layer` (ids.size() <= capacity(layer)).
  void set_neighbors(LocalId v, int layer, std::span<const LocalId> ids) noexcept;
  /// Append `x` to v's list at `layer`; false (and no change) when full.
  bool add_link(LocalId v, int layer, LocalId x) noexcept;

  /// Prefetch v's layer-0 block (count + leading neighbours).
  void prefetch0(LocalId v) const noexcept {
    simd::prefetch_line(l0_.data() + v * (2 * M_ + 1));
  }

 private:
  /// Index in upper_ of v's block at `layer` >= 1.
  [[nodiscard]] std::size_t upper_at(LocalId v, int layer) const noexcept {
    return upper_start_[v] + std::size_t(layer - 1) * (M_ + 1);
  }
  [[nodiscard]] LocalId* block(LocalId v, int layer) noexcept {
    if (layer == 0) return l0_.data() + v * (2 * M_ + 1);
    return upper_.data() + upper_at(v, layer);
  }

  std::size_t M_ = 0;
  std::vector<LocalId> l0_;
  std::vector<LocalId> upper_;
  std::vector<std::uint64_t> upper_start_;
  std::vector<std::int32_t> level_;
  LocalId entry_point_ = kInvalidLocalId;
  int max_level_ = -1;
};

}  // namespace annsim::hnsw
