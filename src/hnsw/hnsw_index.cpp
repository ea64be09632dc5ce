#include "annsim/hnsw/hnsw_index.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>

#include "annsim/common/error.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/hnsw/beam.hpp"

namespace annsim::hnsw {

namespace {

/// Constructor preconditions, shared with from_bytes so a decoded header is
/// held to the same rules. Resolves level_mult = 0 to the canonical 1/ln(M).
HnswParams checked(HnswParams p) {
  ANNSIM_CHECK_MSG(p.metric >= simd::Metric::kL2 &&
                       p.metric <= simd::Metric::kCosine,
                   "HNSW: unknown metric " << int(p.metric));
  ANNSIM_CHECK_MSG(p.M >= 2 && p.M <= FlatGraph::kMaxM, "HNSW: M = " << p.M);
  ANNSIM_CHECK_MSG(p.ef_construction >= p.M,
                   "HNSW: ef_construction " << p.ef_construction << " < M");
  if (p.level_mult <= 0.0) p.level_mult = 1.0 / std::log(double(p.M));
  // rng.uniform() >= 2^-53, so a level never exceeds 36.8 * level_mult.
  ANNSIM_CHECK_MSG(p.level_mult * 36.8 < FlatGraph::kMaxLayers - 1,
                   "HNSW: level_mult " << p.level_mult << " too large");
  return p;
}

/// Level assignment: floor(-ln(U) * mL), derived deterministically from the
/// seed and the node id so parallel builds are reproducible.
int draw_level(const HnswParams& p, LocalId node) {
  Rng rng = Rng(p.seed).split(node);
  double u = 0.0;
  while (u == 0.0) u = rng.uniform();
  return int(-std::log(u) * p.level_mult);
}

}  // namespace

struct HnswIndex::Impl {
  Impl(FlatGraph g, bool writable)
      : graph(std::move(g)),
        locks(writable ? std::make_unique<std::mutex[]>(graph.size())
                       : nullptr) {}

  FlatGraph graph;
  /// Per-node link locks, held while an insert rewrites a block and while an
  /// unfrozen search copies one. Decoded (frozen) images have none.
  std::unique_ptr<std::mutex[]> locks;
  /// Guards the graph's entry point and max level while inserts run.
  std::mutex entry_mu;
  std::atomic<std::size_t> n_inserted{0};
  std::atomic<bool> frozen{false};
  BeamPool pool;
};

HnswIndex::HnswIndex(const data::Dataset* data, HnswParams params)
    : data_(data), params_(params) {
  ANNSIM_CHECK(data_ != nullptr);
  params_ = checked(params_);
  std::vector<int> levels(data_->size());
  for (std::size_t v = 0; v < levels.size(); ++v) {
    levels[v] = draw_level(params_, LocalId(v));
  }
  impl_ = std::make_unique<Impl>(FlatGraph(params_.M, levels), true);
}

HnswIndex::HnswIndex(const data::Dataset* data, HnswParams params,
                     std::unique_ptr<Impl> impl)
    : data_(data), params_(params), impl_(std::move(impl)) {}

HnswIndex::~HnswIndex() = default;
HnswIndex::HnswIndex(HnswIndex&&) noexcept = default;
HnswIndex& HnswIndex::operator=(HnswIndex&&) noexcept = default;

std::size_t HnswIndex::size() const noexcept {
  return impl_->n_inserted.load(std::memory_order_relaxed);
}

bool HnswIndex::is_frozen() const noexcept {
  return impl_->frozen.load(std::memory_order_acquire);
}

const FlatGraph& HnswIndex::flat_graph() const {
  ANNSIM_CHECK_MSG(is_frozen(),
                   "HnswIndex::flat_graph: index is not frozen yet");
  return impl_->graph;
}

namespace {

/// Heuristic neighbor selection (Algorithm 4 of the HNSW paper): scan
/// candidates nearest-first (`candidates` ascending by (dist, node)), keep
/// one only if it is closer to the query than to every already-kept
/// neighbor; backfill with pruned candidates.
/// Comparisons happen in search space (order-identical to ranking space).
std::vector<LocalId> select_neighbors(const data::Dataset& data,
                                      const simd::DistanceComputer& dist,
                                      std::span<const Cand> candidates,
                                      std::size_t m) {
  std::vector<LocalId> kept;
  std::vector<LocalId> pruned;
  kept.reserve(m);
  for (const Cand& c : candidates) {
    if (kept.size() >= m) break;
    bool closer_to_kept = false;
    for (LocalId s : kept) {
      if (dist.search_dist(data.row(c.node), data.row(s)) < c.dist) {
        closer_to_kept = true;
        break;
      }
    }
    if (closer_to_kept) {
      pruned.push_back(c.node);
    } else {
      kept.push_back(c.node);
    }
  }
  for (LocalId p : pruned) {
    if (kept.size() >= m) break;
    kept.push_back(p);  // keepPrunedConnections
  }
  return kept;
}

}  // namespace

void HnswIndex::insert(LocalId node) {
  ANNSIM_CHECK(node < data_->size());
  Impl& im = *impl_;
  if (im.frozen.load(std::memory_order_acquire)) [[unlikely]] {
    std::ostringstream os;
    os << "HnswIndex::insert(" << node << "): index is frozen (read-only "
       << "FlatGraph form, " << im.n_inserted.load(std::memory_order_acquire)
       << " nodes); inserts are only legal before freeze()";
    throw FrozenIndexError(os.str());
  }
  FlatGraph& g = im.graph;
  const int level = draw_level(params_, node);
  {
    std::lock_guard lk(im.locks[node]);
    ANNSIM_CHECK_MSG(g.level(node) < 0, "node inserted twice: " << node);
    g.set_level(node, level);
  }

  // Snapshot the entry point / top level.
  LocalId entry;
  int top_level;
  {
    std::lock_guard lk(im.entry_mu);
    entry = g.entry_point();
    top_level = g.max_level();
    if (entry == kInvalidLocalId) {
      // First node becomes the entry point.
      g.set_entry(node, level);
      im.n_inserted.fetch_add(1, std::memory_order_release);
      return;
    }
  }

  const simd::DistanceComputer dist(params_.metric, data_->dim());
  const float* qv = data_->row(node);
  const auto batch = [&](const LocalId* ids, std::size_t m, float* out) {
    dist.search_dist_batch(qv, data_->row(0), data_->stride(), ids, m, out);
  };
  auto s = im.pool.acquire(data_->size());

  // Greedy descent through layers above the node's level, then connect at
  // each layer from min(level, top_level) down to 0.
  std::vector<LocalId> eps{
      descend(g, im.locks.get(), entry, top_level, level, *s, batch)};
  for (int layer = std::min(level, top_level); layer >= 0; --layer) {
    beam_layer(g, im.locks.get(), eps, layer, params_.ef_construction, *s,
               batch);
    const std::size_t m_layer = g.capacity(layer);
    const auto neighbors = select_neighbors(*data_, dist, s->best, params_.M);
    {
      std::lock_guard lk(im.locks[node]);
      g.set_neighbors(node, layer, neighbors);
    }

    // Back-links, shrinking the neighbor's list when it overflows.
    for (LocalId nb : neighbors) {
      std::lock_guard lk(im.locks[nb]);
      if (g.add_link(nb, layer, node)) continue;
      const float* nbv = data_->row(nb);
      std::vector<Cand> cands{{dist.search_dist(nbv, qv), node}};
      for (LocalId x : g.neighbors(nb, layer)) {
        cands.push_back({dist.search_dist(nbv, data_->row(x)), x});
      }
      std::sort(cands.begin(), cands.end());
      g.set_neighbors(nb, layer,
                      select_neighbors(*data_, dist, cands, m_layer));
    }

    // Next layer starts from this layer's candidates.
    eps.clear();
    for (const Cand& c : s->best) eps.push_back(c.node);
  }

  {
    std::lock_guard lk(im.entry_mu);
    if (level > g.max_level()) g.set_entry(node, level);
  }
  im.n_inserted.fetch_add(1, std::memory_order_release);
}

void HnswIndex::build(ThreadPool* pool) {
  const std::size_t n = data_->size();
  if (n == 0) {
    freeze();
    return;
  }
  if (pool != nullptr && pool->size() > 1) {
    // Seed the graph with one node to fix the entry point, then parallelize.
    insert(0);
    pool->parallel_for(1, n, [this](std::size_t i) { insert(LocalId(i)); });
  } else {
    for (std::size_t i = 0; i < n; ++i) insert(LocalId(i));
  }
  freeze();
}

void HnswIndex::freeze() {
  impl_->frozen.store(true, std::memory_order_release);
}

std::vector<Neighbor> HnswIndex::search(const float* query, std::size_t k,
                                        std::size_t ef) const {
  ANNSIM_CHECK(k > 0);
  Impl& im = *impl_;
  if (ef == 0) ef = params_.ef_search;
  ef = std::max(ef, k);
  const FlatGraph& g = im.graph;

  // Frozen: lists are read in place. Unfrozen: inserts may be running, so
  // the entry point is snapshot under its lock and lists copied under theirs.
  std::mutex* locks = nullptr;
  LocalId ep;
  int top_level;
  if (is_frozen()) {
    ep = g.entry_point();
    top_level = g.max_level();
  } else {
    std::lock_guard lk(im.entry_mu);
    ep = g.entry_point();
    top_level = g.max_level();
    locks = im.locks.get();
  }
  if (ep == kInvalidLocalId) return {};

  const simd::DistanceComputer dist(params_.metric, data_->dim());
  const auto batch = [&](const LocalId* ids, std::size_t m, float* out) {
    dist.search_dist_batch(query, data_->row(0), data_->stride(), ids, m, out);
  };
  auto s = im.pool.acquire(data_->size());
  ep = descend(g, locks, ep, top_level, 0, *s, batch);
  beam_layer(g, locks, {&ep, 1}, 0, ef, *s, batch);

  const auto& best = s->best;  // ascending (dist, node)
  std::vector<Neighbor> out;
  out.reserve(std::min(k, best.size()));
  for (std::size_t i = 0; i < best.size() && out.size() < k; ++i) {
    out.push_back({dist.to_ranking(best[i].dist), data_->id(best[i].node)});
  }
  return out;
}

data::KnnResults HnswIndex::search_batch(const data::Dataset& queries,
                                         std::size_t k, std::size_t ef,
                                         ThreadPool* pool) const {
  ANNSIM_CHECK(queries.dim() == data_->dim());
  data::KnnResults results(queries.size());
  auto run = [&](std::size_t q) { results[q] = search(queries.row(q), k, ef); };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(0, queries.size(), run);
  } else {
    for (std::size_t q = 0; q < queries.size(); ++q) run(q);
  }
  return results;
}

HnswStats HnswIndex::stats() const {
  const FlatGraph& g = impl_->graph;
  HnswStats s;
  s.n_nodes = size();
  s.max_level = g.max_level();
  s.nodes_per_level.assign(std::size_t(g.max_level() + 1), 0);
  std::size_t deg0 = 0, n0 = 0;
  for (LocalId v = 0; v < LocalId(g.size()); ++v) {
    const int level = g.level(v);
    if (level < 0) continue;
    for (int l = 0; l <= level; ++l) {
      if (std::size_t(l) < s.nodes_per_level.size()) ++s.nodes_per_level[l];
    }
    deg0 += g.neighbors0(v).size();
    ++n0;
  }
  s.avg_degree_level0 = n0 ? double(deg0) / double(n0) : 0.0;
  return s;
}

std::vector<std::byte> HnswIndex::to_bytes() const {
  BinaryWriter w;
  w.reserve(128);
  w.write(std::uint32_t{0x414E4E31});  // "ANN1"
  w.write(std::uint64_t(params_.M));
  w.write(std::uint64_t(params_.ef_construction));
  w.write(std::uint64_t(params_.ef_search));
  w.write(params_.level_mult);
  w.write(params_.seed);
  w.write(std::int32_t(params_.metric));
  w.write(std::uint64_t(data_->size()));
  impl_->graph.write(w);
  return w.take();
}

void HnswIndex::save(const std::string& path) const {
  const auto bytes = to_bytes();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ANNSIM_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  ANNSIM_CHECK(out.good());
}

HnswIndex HnswIndex::load(const std::string& path, const data::Dataset* data) {
  std::ifstream in(path, std::ios::binary);
  ANNSIM_CHECK_MSG(in.good(), "cannot open for reading: " << path);
  std::vector<std::byte> bytes;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  bytes.resize(size);
  in.read(reinterpret_cast<char*>(bytes.data()), std::streamsize(size));
  ANNSIM_CHECK(in.good());
  return from_bytes(bytes, data);
}

HnswIndex HnswIndex::from_bytes(std::span<const std::byte> bytes,
                                const data::Dataset* data) {
  ANNSIM_CHECK(data != nullptr);
  BinaryReader r(bytes);
  ANNSIM_CHECK_MSG(r.read<std::uint32_t>() == 0x414E4E31, "bad HNSW file magic");
  HnswParams p;
  p.M = r.read<std::uint64_t>();
  p.ef_construction = r.read<std::uint64_t>();
  p.ef_search = r.read<std::uint64_t>();
  p.level_mult = r.read<double>();
  p.seed = r.read<std::uint64_t>();
  p.metric = simd::Metric(r.read<std::int32_t>());
  p = checked(p);
  const auto n = r.read<std::uint64_t>();
  ANNSIM_CHECK_MSG(n == data->size(), "HNSW file does not match dataset size");

  // Decode straight into the frozen form: no per-node locks for replicas.
  auto impl = std::make_unique<Impl>(FlatGraph::read(r, n, p.M), false);
  ANNSIM_CHECK_MSG(r.exhausted(), "HNSW file: trailing bytes after graph");
  std::size_t inserted = 0;
  for (LocalId v = 0; v < n; ++v) inserted += impl->graph.level(v) >= 0;
  impl->n_inserted.store(inserted);
  impl->frozen.store(true, std::memory_order_release);
  return HnswIndex(data, p, std::move(impl));
}

std::vector<Neighbor> BruteForceIndex::search(const float* query,
                                              std::size_t k) const {
  TopK topk(k);
  const std::size_t n = data_->size();
  if (n == 0) return {};
  const float* base = data_->row(0);
  const std::size_t stride = data_->stride();

  // Blocked one-to-many kernel over contiguous rows; ranking in search space
  // (order-identical), converted once on the k results at the end.
  constexpr std::size_t kBlock = 256;
  float dists[kBlock];
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::size_t m = std::min(kBlock, n - i0);
    dist_.search_dist_batch(query, base + i0 * stride, stride,
                            /*ids=*/nullptr, m, dists);
    for (std::size_t j = 0; j < m; ++j) {
      topk.push(dists[j], data_->id(i0 + j));
    }
  }
  auto out = topk.take_sorted();
  for (auto& nb : out) nb.dist = dist_.to_ranking(nb.dist);
  return out;
}

}  // namespace annsim::hnsw
