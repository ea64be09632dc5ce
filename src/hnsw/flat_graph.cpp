#include "annsim/hnsw/flat_graph.hpp"

#include <algorithm>

#include "annsim/common/error.hpp"

namespace annsim::hnsw {

FlatGraph::FlatGraph(std::size_t M, std::span<const int> layout)
    : M_(M), l0_(layout.size() * (2 * M + 1), 0), level_(layout.size(), -1) {
  upper_start_.reserve(layout.size());
  std::size_t upper = 0;
  for (const int level : layout) {
    upper_start_.push_back(upper);
    upper += std::size_t(std::max(level, 0)) * (M + 1);
  }
  upper_.assign(upper, 0);
}

FlatGraph FlatGraph::read(BinaryReader& r, std::size_t n, std::size_t M) {
  ANNSIM_CHECK_MSG(M >= 2 && M <= kMaxM, "HNSW image: M = " << M);
  FlatGraph g;
  g.M_ = M;
  g.l0_.assign(n * (2 * M + 1), 0);
  g.level_.assign(n, -1);
  g.upper_start_.reserve(n);
  const auto max_level = r.read<std::int32_t>();
  const auto entry = r.read<LocalId>();
  for (std::size_t v = 0; v < n; ++v) {
    const auto n_layers = r.read<std::uint32_t>();
    ANNSIM_CHECK_MSG(n_layers <= kMaxLayers &&
                         n_layers <= r.remaining() / sizeof(std::uint64_t),
                     "HNSW image: node " << v << " claims " << n_layers
                                         << " layers");
    g.level_[v] = std::int32_t(n_layers) - 1;
    g.upper_start_.push_back(g.upper_.size());
    if (n_layers > 1) g.upper_.resize(g.upper_.size() + (n_layers - 1) * (M + 1));
    for (std::uint32_t l = 0; l < n_layers; ++l) {
      const auto count = r.read<std::uint64_t>();
      ANNSIM_CHECK_MSG(count <= g.capacity(int(l)) &&
                           count <= r.remaining() / sizeof(LocalId),
                       "HNSW image: node " << v << " layer " << l << " has "
                                           << count << " links");
      LocalId* b = g.block(LocalId(v), int(l));
      b[0] = LocalId(count);
      r.read_into(std::span<LocalId>(b + 1, count));
      for (std::size_t i = 1; i <= count; ++i) {
        ANNSIM_CHECK_MSG(b[i] < n, "HNSW image: node " << v << " links to "
                                                       << b[i] << " >= " << n);
      }
    }
  }
  ANNSIM_CHECK_MSG(entry == kInvalidLocalId
                       ? max_level == -1
                       : entry < n && g.level_[entry] == max_level,
                   "HNSW image: bad entry point " << entry << " at level "
                                                  << max_level);
  g.set_entry(entry, max_level);
  return g;
}

void FlatGraph::write(BinaryWriter& w) const {
  w.write(std::int32_t(max_level_));
  w.write(entry_point_);
  for (std::size_t v = 0; v < size(); ++v) {
    const std::uint32_t n_layers = std::uint32_t(level_[v] + 1);
    w.write(n_layers);
    for (std::uint32_t l = 0; l < n_layers; ++l) {
      w.write_span(neighbors(LocalId(v), int(l)));
    }
  }
}

void FlatGraph::set_neighbors(LocalId v, int layer,
                              std::span<const LocalId> ids) noexcept {
  LocalId* b = block(v, layer);
  b[0] = LocalId(ids.size());
  std::copy(ids.begin(), ids.end(), b + 1);
}

bool FlatGraph::add_link(LocalId v, int layer, LocalId x) noexcept {
  LocalId* b = block(v, layer);
  const LocalId count = b[0];
  if (count >= capacity(layer)) return false;
  b[count + 1] = x;
  b[0] = count + 1;
  return true;
}

}  // namespace annsim::hnsw
