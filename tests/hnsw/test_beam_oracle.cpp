/// \file test_beam_oracle.cpp
/// \brief Differential oracle for hnsw::beam_layer. The reference below is
/// the classic two-heap beam (a min-heap frontier of candidates left to
/// expand, a max-heap of the nearest ef, stop when the nearest unexpanded
/// candidate is farther than the worst kept). The sorted-pool beam must
/// return the same ids with the same distance bits, in the same order, for
/// every metric, beam width and neighbour accessor, over float rows and SQ8
/// code rows. The data is integer-valued with duplicated rows, so exact
/// distance ties are common and the tie tail of the pool is exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "annsim/common/aligned_buffer.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/hnsw/beam.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/quant/sq_codec.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::hnsw {
namespace {

constexpr std::size_t kRows = 600;
constexpr std::size_t kQueries = 40;
constexpr std::size_t kDim = 8;
constexpr std::size_t kEfs[] = {1, 10, 64, 200};

/// Integer-valued rows in [1, 4]^dim (never the zero vector, so cosine is
/// defined); every fifth row repeats an earlier one.
data::Dataset tie_rows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset ds(n, kDim);
  std::vector<float> row(kDim);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 5 == 4) {
      const auto src = ds.row_span(rng.uniform_below(i));
      row.assign(src.begin(), src.end());
    } else {
      for (float& x : row) x = float(1 + rng.uniform_below(4));
    }
    ds.set_row(i, row);
    ds.set_id(i, GlobalId(i));
  }
  return ds;
}

/// The two-heap beam, kept only as the reference the pool must match. It
/// scores one candidate at a time through the same batched kernel.
template <class Batch>
std::vector<Cand> reference_beam(const FlatGraph& g, std::mutex* locks,
                                 std::span<const LocalId> entries, int layer,
                                 std::size_t ef, const Batch& batch) {
  std::vector<bool> visited(g.size(), false);
  const auto farther = [](const Cand& a, const Cand& b) { return b < a; };
  std::vector<Cand> frontier;  // min-heap
  std::vector<Cand> best;      // max-heap
  const auto admit = [&](LocalId v) {
    if (visited[v]) return;
    visited[v] = true;
    Cand c{0.0f, v};
    batch(&v, 1, &c.dist);
    if (best.size() < ef || c.dist < best.front().dist) {
      frontier.push_back(c);
      std::push_heap(frontier.begin(), frontier.end(), farther);
      best.push_back(c);
      std::push_heap(best.begin(), best.end());
      if (best.size() > ef) {
        std::pop_heap(best.begin(), best.end());
        best.pop_back();
      }
    }
  };
  for (LocalId e : entries) admit(e);
  while (!frontier.empty()) {
    if (best.size() >= ef && frontier.front().dist > best.front().dist) break;
    std::pop_heap(frontier.begin(), frontier.end(), farther);
    const LocalId v = frontier.back().node;
    frontier.pop_back();
    std::vector<LocalId> neigh;
    {
      std::unique_lock<std::mutex> lk;
      if (locks != nullptr) lk = std::unique_lock(locks[v]);
      const auto src = g.neighbors(v, layer);
      neigh.assign(src.begin(), src.end());
    }
    for (LocalId nb : neigh) admit(nb);
  }
  std::sort_heap(best.begin(), best.end());
  return best;
}

void expect_same(std::span<const Cand> got, std::span<const Cand> want,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].node, want[i].node) << what << " rank " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i].dist),
              std::bit_cast<std::uint32_t>(want[i].dist))
        << what << " rank " << i;
  }
}

/// Runs both beams over `g` with the batched distance `batch`: first from
/// the entry point through every layer (greedy descent, then width ef at
/// layer 0), then from several entries on every layer, with the in-place
/// and the locked accessor each time.
template <class Batch>
void compare_all(const FlatGraph& g, const Batch& batch, const char* what) {
  BeamPool pool;
  auto s = pool.acquire(g.size());
  auto locks = std::make_unique<std::mutex[]>(g.size());
  for (std::mutex* lk : {static_cast<std::mutex*>(nullptr), locks.get()}) {
    for (std::size_t ef : kEfs) {
      LocalId ep = g.entry_point();
      for (int layer = g.max_level(); layer >= 0; --layer) {
        const std::size_t width = layer == 0 ? ef : 1;
        beam_layer(g, lk, {&ep, 1}, layer, width, *s, batch);
        const auto want = reference_beam(g, lk, {&ep, 1}, layer, width, batch);
        expect_same(s->best, want, what);
        ep = want.front().node;
      }
      for (int layer = 0; layer <= g.max_level(); ++layer) {
        std::vector<LocalId> entries;
        const std::size_t n_entries = std::min<std::size_t>(ef, 6);
        for (LocalId v = 0; v < g.size() && entries.size() < n_entries; ++v) {
          if (g.level(v) >= layer) entries.push_back(v);
        }
        beam_layer(g, lk, entries, layer, ef, *s, batch);
        expect_same(s->best, reference_beam(g, lk, entries, layer, ef, batch),
                    what);
      }
    }
  }
}

HnswParams oracle_params(simd::Metric metric) {
  HnswParams p;
  p.M = 8;
  p.ef_construction = 40;
  p.seed = 17;
  p.metric = metric;
  return p;
}

TEST(BeamOracle, FloatBeamEqualsTheTwoHeapBeamUnderTies) {
  const auto base = tie_rows(kRows, 41);
  const auto queries = tie_rows(kQueries, 42);
  for (simd::Metric metric :
       {simd::Metric::kL2, simd::Metric::kL1, simd::Metric::kInnerProduct,
        simd::Metric::kCosine}) {
    HnswIndex index(&base, oracle_params(metric));
    index.build();
    const FlatGraph& g = index.flat_graph();
    const simd::DistanceComputer dist(metric, kDim);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const float* qv = queries.row(q);
      const auto batch = [&](const LocalId* ids, std::size_t m, float* out) {
        dist.search_dist_batch(qv, base.row(0), base.stride(), ids, m, out);
      };
      compare_all(g, batch, simd::metric_name(metric));
    }
  }
}

TEST(BeamOracle, CodeBeamEqualsTheTwoHeapBeamUnderTies) {
  const auto base = tie_rows(kRows, 43);
  const auto queries = tie_rows(kQueries, 44);
  const quant::SqCodec codec = quant::SqCodec::train(base);
  const std::size_t cstride = codec.code_stride();
  AlignedBuffer<std::uint8_t> codes(kRows * cstride);
  for (std::size_t i = 0; i < kRows; ++i) {
    codec.encode(base.row_span(i), codes.data() + i * cstride);
  }
  for (simd::Metric metric :
       {simd::Metric::kL2, simd::Metric::kInnerProduct}) {
    HnswIndex index(&base, oracle_params(metric));
    index.build();
    const FlatGraph& g = index.flat_graph();
    const bool l2 = metric == simd::Metric::kL2;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const float* qv = queries.row(q);
      const auto batch = [&](const LocalId* ids, std::size_t m, float* out) {
        if (l2) {
          simd::l2_sq_batch_u8(qv, codes.data(), cstride, kDim, codec.mins(),
                               codec.scales(), ids, m, out);
          return;
        }
        simd::ip_batch_u8(qv, codes.data(), cstride, kDim, codec.mins(),
                          codec.scales(), ids, m, out);
        for (std::size_t i = 0; i < m; ++i) out[i] = 1.0f - out[i];
      };
      compare_all(g, batch, l2 ? "sq8 L2" : "sq8 IP");
    }
  }
}

}  // namespace
}  // namespace annsim::hnsw
