/// SqSegment unit tests: the compressed-tier contract.
///  * graph search over codes + exact re-rank stays within recall reach of
///    the float tier on the same corpus;
///  * a full re-rank cache (fraction = 1.0) emits *exact* distances;
///  * the wire image round-trips byte-identically and search-identically;
///  * the resident footprint beats the float tier by > 3x at small cache
///    fractions;
///  * measured heat drives cache selection; access counters accumulate;
///  * a corrupted image either decodes into a segment that searches safely
///    or throws annsim::Error.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/quant/sq_segment.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::quant {
namespace {

SqSegmentParams small_params(double fraction = 0.02) {
  SqSegmentParams p;
  p.hnsw.M = 8;
  p.hnsw.ef_construction = 64;
  p.hnsw.ef_search = 64;
  p.float_cache_fraction = fraction;
  return p;
}

TEST(SqSegment, SearchRecallNearBruteForce) {
  auto w = data::make_sift_like(1200, 50, 81);
  const auto seg = SqSegment::build(w.base, small_params());
  const auto gt = data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kL2);
  double recall = 0.0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const auto res = seg->search(w.queries.row(q), 10);
    ASSERT_EQ(res.size(), 10u);
    std::size_t hits = 0;
    for (const auto& nb : res)
      for (const auto& t : gt[q])
        if (nb.id == t.id) { ++hits; break; }
    recall += double(hits) / 10.0;
  }
  recall /= double(w.queries.size());
  EXPECT_GE(recall, 0.9);
}

TEST(SqSegment, ScanIsExactOnIds) {
  // The brute-force scan overfetches far beyond k, so for small corpora the
  // emitted id set must equal ground truth even before re-ranking helps.
  auto w = data::make_sift_like(400, 20, 82);
  const auto seg = SqSegment::build(w.base, small_params());
  const auto gt = data::brute_force_knn(w.base, w.queries, 5, simd::Metric::kL2);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const auto res = seg->scan(w.queries.row(q), 5);
    ASSERT_EQ(res.size(), 5u);
    std::size_t hits = 0;
    for (const auto& nb : res)
      for (const auto& t : gt[q])
        if (nb.id == t.id) { ++hits; break; }
    EXPECT_GE(hits, 4u) << "query " << q;  // codes may flip near-ties
  }
}

TEST(SqSegment, FullCacheEmitsExactDistances) {
  auto w = data::make_sift_like(500, 20, 83);
  const auto seg = SqSegment::build(w.base, small_params(1.0));
  EXPECT_EQ(seg->cached_rows(), w.base.size());
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    for (const auto& nb : seg->search(w.queries.row(q), 5)) {
      const float exact = std::sqrt(simd::l2_sq(
          w.queries.row(q), w.base.row(std::size_t(nb.id)), w.base.dim()));
      EXPECT_FLOAT_EQ(nb.dist, exact) << "query " << q;
    }
  }
  const auto c = seg->counters();
  EXPECT_GT(c.rerank_exact, 0u);
  EXPECT_EQ(c.rerank_coded, 0u);  // everything was cached
}

TEST(SqSegment, MemoryBeatsFloatTierBy3x) {
  auto w = data::make_sift_like(2000, 1, 84);
  const auto seg = SqSegment::build(w.base, small_params(0.02));
  EXPECT_LT(seg->memory_bytes() * 3, seg->float_bytes());
  // And the cache fraction costs what it says: fraction 1.0 stores all rows.
  const auto full = SqSegment::build(w.base, small_params(1.0));
  EXPECT_GT(full->memory_bytes(), seg->memory_bytes());
}

TEST(SqSegment, HeatDrivesCacheSelection) {
  auto w = data::make_sift_like(300, 1, 85);
  std::vector<std::uint64_t> heat(w.base.size(), 0);
  // Rows 17, 42, 111 are the measured-hot set.
  heat[17] = 1000;
  heat[42] = 900;
  heat[111] = 800;
  SqSegmentParams p = small_params(3.0 / 300.0);  // room for exactly 3 rows
  const auto seg = SqSegment::build(w.base, p, nullptr, heat);
  ASSERT_EQ(seg->cached_rows(), 3u);
  std::vector<float> out(w.base.dim());
  for (std::size_t hot : {17u, 42u, 111u}) {
    seg->reconstruct(hot, out.data());
    for (std::size_t j = 0; j < w.base.dim(); ++j)
      EXPECT_EQ(out[j], w.base.row(hot)[j]) << "hot row " << hot;  // exact copy
  }
}

TEST(SqSegment, ReconstructColdRowsWithinCodecBound) {
  auto w = data::make_sift_like(200, 1, 86);
  const auto seg = SqSegment::build(w.base, small_params(0.0));
  const float bound = seg->codec().max_abs_error() + 1e-5f;
  std::vector<float> out(w.base.dim());
  for (std::size_t i = 0; i < w.base.size(); i += 13) {
    seg->reconstruct(i, out.data());
    for (std::size_t j = 0; j < w.base.dim(); ++j)
      EXPECT_LE(std::fabs(out[j] - w.base.row(i)[j]), bound);
  }
}

TEST(SqSegment, AccessCountersAccumulate) {
  auto w = data::make_sift_like(300, 10, 87);
  const auto seg = SqSegment::build(w.base, small_params());
  auto before = seg->access_counts();
  EXPECT_EQ(std::accumulate(before.begin(), before.end(), std::uint64_t(0)), 0u);
  for (std::size_t q = 0; q < w.queries.size(); ++q)
    (void)seg->search(w.queries.row(q), 10);
  auto after = seg->access_counts();
  EXPECT_GT(std::accumulate(after.begin(), after.end(), std::uint64_t(0)), 0u);
}

TEST(SqSegment, WireRoundTripIsByteIdentical) {
  auto w = data::make_sift_like(400, 10, 88);
  const auto seg = SqSegment::build(w.base, small_params());
  // Touch the access counters first: they must be *excluded* from the wire
  // image (deterministic bytes regardless of traffic).
  for (std::size_t q = 0; q < w.queries.size(); ++q)
    (void)seg->search(w.queries.row(q), 10);
  const auto bytes = seg->to_bytes();
  const auto back = SqSegment::from_bytes(bytes, seg->params());
  ASSERT_EQ(back->size(), seg->size());
  EXPECT_EQ(back->cached_rows(), seg->cached_rows());
  EXPECT_EQ(back->to_bytes(), bytes);
  // Restored segment answers identically (same codes, same graph, same
  // cache, deterministic tie-breaks).
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const auto a = seg->search(w.queries.row(q), 10);
    const auto b = back->search(w.queries.row(q), 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(a[i].dist, b[i].dist) << "query " << q << " rank " << i;
    }
  }
}

TEST(SqSegment, InnerProductMetricWorks) {
  auto w = data::make_sift_like(500, 20, 89);
  SqSegmentParams p = small_params();
  p.hnsw.metric = simd::Metric::kInnerProduct;
  const auto seg = SqSegment::build(w.base, p);
  const auto gt =
      data::brute_force_knn(w.base, w.queries, 10, simd::Metric::kInnerProduct);
  double recall = 0.0;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    const auto res = seg->search(w.queries.row(q), 10);
    std::size_t hits = 0;
    for (const auto& nb : res)
      for (const auto& t : gt[q])
        if (nb.id == t.id) { ++hits; break; }
    recall += double(hits) / 10.0;
  }
  EXPECT_GE(recall / double(w.queries.size()), 0.85);
}

TEST(SqSegment, SeededByteMutationsDecodeSafelyOrThrow) {
  auto w = data::make_sift_like(300, 6, 90);
  const auto seg = SqSegment::build(w.base, small_params(0.05));
  const auto image = seg->to_bytes();
  Rng rng(20260418);
  std::size_t decoded = 0, rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    auto bytes = image;
    if (iter % 8 == 7) {
      bytes.resize(rng.uniform_below(bytes.size()));  // truncation
    } else {
      const auto n_flips = 1 + rng.uniform_below(3);
      for (std::uint64_t f = 0; f < n_flips; ++f) {
        bytes[rng.uniform_below(bytes.size())] =
            std::byte(rng.uniform_below(256));
      }
    }
    try {
      const auto back = SqSegment::from_bytes(bytes, seg->params());
      ++decoded;
      // A caller restores a segment only into an index of its dimension.
      if (back->dim() != w.base.dim()) continue;
      for (std::size_t q = 0; q < w.queries.size(); ++q) {
        ASSERT_LE(back->search(w.queries.row(q), 10).size(), 10u);
        ASSERT_LE(back->scan(w.queries.row(q), 10).size(), 10u);
      }
    } catch (const Error&) {
      ++rejected;
    }
  }
  RecordProperty("decoded", int(decoded));
  RecordProperty("rejected", int(rejected));
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace annsim::quant
