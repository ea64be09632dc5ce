#include "annsim/quant/sq_segment.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "annsim/common/error.hpp"
#include "annsim/common/serialize.hpp"

namespace annsim::quant {

namespace {

constexpr std::uint32_t kMagic = 0x414E5131;  // "ANQ1"
constexpr std::uint32_t kNotCached = 0xFFFFFFFFu;
/// Dataset row padding (floats); the cache slab mirrors it so cached rows
/// take aligned SIMD loads exactly like float-tier rows.
constexpr std::size_t kFloatPad = 8;

std::size_t float_stride(std::size_t dim) noexcept {
  return (dim + kFloatPad - 1) / kFloatPad * kFloatPad;
}

/// Max-heap over a vector: front() is the worst candidate kept.
void max_push(std::vector<hnsw::Cand>& h, hnsw::Cand c) {
  h.push_back(c);
  std::push_heap(h.begin(), h.end());
}
void max_pop(std::vector<hnsw::Cand>& h) {
  std::pop_heap(h.begin(), h.end());
  h.pop_back();
}

}  // namespace

std::unique_ptr<SqSegment> SqSegment::build(const data::Dataset& rows,
                                            const SqSegmentParams& params,
                                            ThreadPool* pool,
                                            std::span<const std::uint64_t> heat) {
  ANNSIM_CHECK_MSG(!rows.empty(), "SqSegment::build: empty row set");
  ANNSIM_CHECK_MSG(params.hnsw.metric == simd::Metric::kL2 ||
                       params.hnsw.metric == simd::Metric::kInnerProduct,
                   "SqSegment supports L2 and InnerProduct only (no uint8 "
                   "kernels for "
                       << simd::metric_name(params.hnsw.metric) << ")");
  ANNSIM_CHECK_MSG(params.float_cache_fraction >= 0.0 &&
                       params.float_cache_fraction <= 1.0,
                   "float_cache_fraction must be within [0, 1]");
  ANNSIM_CHECK_MSG(heat.empty() || heat.size() == rows.size(),
                   "SqSegment::build: heat size " << heat.size()
                                                  << " != rows " << rows.size());

  std::unique_ptr<SqSegment> seg(new SqSegment());
  seg->params_ = params;
  seg->n_ = rows.size();
  seg->ids_.assign(rows.ids().begin(), rows.ids().end());

  // 1. Codebook + code slab.
  seg->codec_ = SqCodec::train(rows);
  const std::size_t cstride = seg->codec_.code_stride();
  seg->codes_.reset(seg->n_ * cstride);
  for (std::size_t i = 0; i < seg->n_; ++i) {
    seg->codec_.encode(rows.row_span(i), seg->codes_.data() + i * cstride);
  }

  // 2. Graph on the floats (identical topology to the float tier); keep its
  // adjacency store.
  hnsw::HnswIndex index(&rows, params.hnsw);
  index.build(pool);
  seg->graph_ = index.flat_graph();

  // 3. Exact re-rank cache while the floats are still in hand.
  seg->select_cache(rows, heat);

  seg->access_ = std::vector<std::atomic<std::uint32_t>>(seg->n_);
  return seg;
}

void SqSegment::select_cache(const data::Dataset& rows,
                             std::span<const std::uint64_t> heat) {
  cache_stride_ = float_stride(dim());
  cache_slot_.assign(n_, kNotCached);
  const double f =
      std::clamp(params_.float_cache_fraction, 0.0, 1.0);
  n_cached_ = std::min(n_, std::size_t(std::ceil(f * double(n_))));
  if (n_cached_ == 0) {
    cache_rows_.reset(0);
    return;
  }

  // Hotness score: measured traffic dominates when available; graph hubness
  // (upper-layer membership, then layer-0 degree) breaks ties and covers the
  // cold-build case — hubs are what every beam expansion touches first.
  std::vector<std::uint64_t> score(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto v = LocalId(i);
    const std::uint64_t hub =
        (std::uint64_t(std::max(graph_.level(v), 0)) << 20) |
        std::uint64_t(graph_.neighbors0(v).size());
    score[i] = ((heat.empty() ? 0 : heat[i]) << 32) + hub;
  }
  std::vector<std::uint32_t> order(n_);
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + std::ptrdiff_t(n_cached_),
                    order.end(), [&](std::uint32_t a, std::uint32_t b) {
                      return score[a] > score[b] ||
                             (score[a] == score[b] && a < b);
                    });

  cache_rows_.reset(n_cached_ * cache_stride_);
  for (std::size_t slot = 0; slot < n_cached_; ++slot) {
    const std::uint32_t row = order[slot];
    cache_slot_[row] = std::uint32_t(slot);
    auto src = rows.row_span(row);
    std::copy(src.begin(), src.end(),
              cache_rows_.data() + slot * cache_stride_);
  }
}

void SqSegment::code_dist_batch(const float* query, std::size_t first,
                                const std::uint32_t* rows, std::size_t m,
                                float* out) const noexcept {
  const std::size_t cstride = codec_.code_stride();
  const std::uint8_t* base = codes_.data() + first * cstride;
  if (params_.hnsw.metric == simd::Metric::kL2) {
    simd::l2_sq_batch_u8(query, base, cstride, dim(), codec_.mins(),
                         codec_.scales(), rows, m, out);
    return;
  }
  simd::ip_batch_u8(query, base, cstride, dim(), codec_.mins(),
                    codec_.scales(), rows, m, out);
  for (std::size_t i = 0; i < m; ++i) out[i] = 1.0f - out[i];
}

std::vector<Neighbor> SqSegment::rerank_emit(
    const float* query, std::span<const hnsw::Cand> cands,
    std::size_t k) const {
  const bool l2 = params_.hnsw.metric == simd::Metric::kL2;
  std::uint64_t exact = 0;
  std::vector<hnsw::Cand> ranked(cands.begin(), cands.end());
  for (hnsw::Cand& c : ranked) {
    access_[c.node].fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t slot = cache_slot_[c.node];
    if (slot != kNotCached) {
      const float* fr = cache_rows_.data() + slot * cache_stride_;
      c.dist = l2 ? simd::l2_sq(query, fr, dim())
                  : 1.0f - simd::inner_product(query, fr, dim());
      ++exact;
    }
  }
  rerank_exact_.fetch_add(exact, std::memory_order_relaxed);
  rerank_coded_.fetch_add(ranked.size() - exact, std::memory_order_relaxed);

  const std::size_t take = std::min(k, ranked.size());
  // Tie-break on global id so emission order is deterministic across the
  // row-permutation a compaction may apply.
  auto cmp = [&](const hnsw::Cand& a, const hnsw::Cand& b) {
    return a.dist < b.dist ||
           (a.dist == b.dist && ids_[a.node] < ids_[b.node]);
  };
  std::partial_sort(ranked.begin(), ranked.begin() + std::ptrdiff_t(take),
                    ranked.end(), cmp);
  std::vector<Neighbor> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const float d = l2 ? std::sqrt(ranked[i].dist) : ranked[i].dist;
    out.push_back({d, ids_[ranked[i].node]});
  }
  return out;
}

std::vector<Neighbor> SqSegment::search(const float* query, std::size_t k,
                                        std::size_t ef) const {
  ANNSIM_CHECK(k > 0);
  if (ef == 0) ef = params_.hnsw.ef_search;
  ef = std::max(ef, k);
  LocalId ep = graph_.entry_point();
  if (ep == kInvalidLocalId) return {};

  // The float tier's beam over the same frozen graph, code distances
  // throughout.
  const auto batch = [&](const LocalId* ids, std::size_t m, float* out) {
    code_dist_batch(query, 0, ids, m, out);
  };
  auto s = pool_.acquire(n_);
  ep = hnsw::descend(graph_, nullptr, ep, graph_.max_level(), 0, *s, batch);
  hnsw::beam_layer(graph_, nullptr, {&ep, 1}, 0, ef, *s, batch);
  // Hand the whole beam to the re-ranker (ef candidates; overfetch relative
  // to k is what lets exact re-scoring reorder past the SQ8 error).
  return rerank_emit(query, s->best, k);
}

std::vector<Neighbor> SqSegment::scan(const float* query, std::size_t k) const {
  ANNSIM_CHECK(k > 0);
  if (n_ == 0) return {};
  // Overfetch so the exact re-rank can reorder past the SQ8 error band.
  const std::size_t fetch = std::min(n_, std::max(k * 4, k + 16));
  constexpr std::size_t kBlock = 256;

  auto s = pool_.acquire(n_);
  s->reserve_lanes(kBlock);
  auto& best = s->best;
  best.clear();
  for (std::size_t start = 0; start < n_; start += kBlock) {
    const std::size_t m = std::min(kBlock, n_ - start);
    code_dist_batch(query, start, nullptr, m, s->dists.data());
    for (std::size_t i = 0; i < m; ++i) {
      const hnsw::Cand c{s->dists[i], LocalId(start + i)};
      if (best.size() < fetch) {
        max_push(best, c);
      } else if (c < best.front()) {
        max_pop(best);
        max_push(best, c);
      }
    }
  }
  return rerank_emit(query, best, k);
}

void SqSegment::reconstruct(std::size_t row, float* out) const {
  ANNSIM_CHECK(row < n_);
  const std::uint32_t slot = cache_slot_[row];
  if (slot != kNotCached) {
    std::memcpy(out, cache_rows_.data() + slot * cache_stride_,
                dim() * sizeof(float));
    return;
  }
  codec_.decode(codes_.data() + row * codec_.code_stride(), out);
}

std::size_t SqSegment::memory_bytes() const noexcept {
  return codes_.size() + cache_rows_.size() * sizeof(float) +
         cache_slot_.size() * sizeof(std::uint32_t) +
         2 * codec_.code_stride() * sizeof(float);
}

std::size_t SqSegment::float_bytes() const noexcept {
  return n_ * float_stride(dim()) * sizeof(float);
}

std::vector<std::uint64_t> SqSegment::access_counts() const {
  std::vector<std::uint64_t> out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out[i] = access_[i].load(std::memory_order_relaxed);
  }
  return out;
}

SqSegmentCounters SqSegment::counters() const noexcept {
  return {rerank_exact_.load(std::memory_order_relaxed),
          rerank_coded_.load(std::memory_order_relaxed)};
}

std::vector<std::byte> SqSegment::to_bytes() const {
  BinaryWriter w;
  w.write(kMagic);
  w.write(std::uint64_t(n_));
  codec_.serialize(w);
  w.write_span(std::span<const GlobalId>(ids_));

  // Codes travel dim-tight: the stride padding is a storage concern.
  std::vector<std::uint8_t> packed(n_ * dim());
  const std::size_t cstride = codec_.code_stride();
  for (std::size_t i = 0; i < n_; ++i) {
    std::memcpy(packed.data() + i * dim(), codes_.data() + i * cstride, dim());
  }
  w.write_vector(packed);

  graph_.write(w);

  // Cached rows in ascending row order so identical logical state yields
  // identical bytes regardless of build-time selection order.
  std::vector<std::uint32_t> cached;
  cached.reserve(n_cached_);
  for (std::uint32_t row = 0; row < n_; ++row) {
    if (cache_slot_[row] != kNotCached) cached.push_back(row);
  }
  w.write_vector(cached);
  std::vector<float> cache_packed(cached.size() * dim());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    std::memcpy(cache_packed.data() + i * dim(),
                cache_rows_.data() + cache_slot_[cached[i]] * cache_stride_,
                dim() * sizeof(float));
  }
  w.write_vector(cache_packed);
  return w.take();
}

std::unique_ptr<SqSegment> SqSegment::from_bytes(
    std::span<const std::byte> bytes, const SqSegmentParams& params) {
  BinaryReader r(bytes);
  ANNSIM_CHECK_MSG(r.read<std::uint32_t>() == kMagic,
                   "SqSegment: bad image magic");
  std::unique_ptr<SqSegment> seg(new SqSegment());
  seg->params_ = params;
  seg->n_ = std::size_t(r.read<std::uint64_t>());
  seg->codec_ = SqCodec::deserialize(r);
  seg->ids_ = r.read_vector<GlobalId>();
  ANNSIM_CHECK_MSG(seg->ids_.size() == seg->n_,
                   "SqSegment: id count mismatch");

  const auto packed = r.read_vector<std::uint8_t>();
  const std::size_t dim = seg->codec_.dim();
  ANNSIM_CHECK_MSG(packed.size() == seg->n_ * dim,
                   "SqSegment: code slab size mismatch");
  const std::size_t cstride = seg->codec_.code_stride();
  seg->codes_.reset(seg->n_ * cstride);
  for (std::size_t i = 0; i < seg->n_; ++i) {
    std::memcpy(seg->codes_.data() + i * cstride, packed.data() + i * dim, dim);
  }

  seg->graph_ = hnsw::FlatGraph::read(r, seg->n_, params.hnsw.M);

  const auto cached = r.read_vector<std::uint32_t>();
  const auto cache_packed = r.read_vector<float>();
  ANNSIM_CHECK_MSG(cache_packed.size() == cached.size() * dim,
                   "SqSegment: re-rank cache size mismatch");
  seg->cache_stride_ = float_stride(dim);
  seg->cache_slot_.assign(seg->n_, kNotCached);
  seg->n_cached_ = cached.size();
  seg->cache_rows_.reset(seg->n_cached_ * seg->cache_stride_);
  for (std::size_t slot = 0; slot < cached.size(); ++slot) {
    const std::uint32_t row = cached[slot];
    ANNSIM_CHECK_MSG(row < seg->n_, "SqSegment: cached row out of range");
    seg->cache_slot_[row] = std::uint32_t(slot);
    std::memcpy(seg->cache_rows_.data() + slot * seg->cache_stride_,
                cache_packed.data() + slot * dim, dim * sizeof(float));
  }
  ANNSIM_CHECK_MSG(r.exhausted(), "SqSegment: trailing bytes after image");

  seg->access_ = std::vector<std::atomic<std::uint32_t>>(seg->n_);
  return seg;
}

}  // namespace annsim::quant
