/// SegmentedIndex unit tests: the live-mutability contract.
///  * searches see frozen segments + delta minus tombstones, immediately;
///  * the delta absorbs inserts up to capacity then auto-compacts;
///  * compaction is tiered — minor folds only the delta (O(delta)), major
///    (fanout / tombstone pressure, or forced by a re-insert) merges
///    everything and purges tombstones;
///  * the serialized image round-trips whole (to_bytes/from_bytes) and in
///    parts (snapshot_parts/from_parts), byte-identically;
///  * a malformed image (float or SQ8) decodes to an index that searches
///    safely, or throws annsim::Error: never a crash or an unchecked
///    allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/segment/segmented_index.hpp"

namespace annsim::segment {
namespace {

SegmentedParams small_params(std::size_t delta_capacity = 64) {
  SegmentedParams p;
  p.hnsw.M = 8;
  p.hnsw.ef_construction = 48;
  p.hnsw.ef_search = 48;
  p.delta_capacity = delta_capacity;
  return p;
}

/// Fraction of queries whose true nearest neighbor (per brute force over
/// `base`) appears in the index's top-k.
double recall_at(const SegmentedIndex& idx, const data::Dataset& base,
                 const data::Dataset& queries, std::size_t k) {
  const auto gt = data::brute_force_knn(base, queries, k, simd::Metric::kL2);
  double hits = 0.0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto res = idx.search(queries.row(q), k);
    for (const auto& nb : res) {
      if (nb.id == gt[q][0].id) {
        hits += 1.0;
        break;
      }
    }
  }
  return hits / double(queries.size());
}

bool result_contains(const std::vector<Neighbor>& res, GlobalId id) {
  return std::any_of(res.begin(), res.end(),
                     [&](const Neighbor& nb) { return nb.id == id; });
}

TEST(SegmentedIndex, InitialBuildMatchesBruteForce) {
  auto w = data::make_sift_like(500, 25, 71);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params());
  EXPECT_EQ(idx.size(), 500u);
  EXPECT_EQ(idx.stats().n_segments, 1u);
  EXPECT_GE(recall_at(idx, w.base, w.queries, 10), 0.9);
}

// Differential oracle: before any write, the segmented index is one frozen
// HNSW segment plus an empty delta, so it must answer exactly as a frozen
// HnswIndex built on the same rows with the same params and seed — same ids
// in the same order, same distance bits.
TEST(SegmentedIndex, WithoutWritesEqualsFrozenHnsw) {
  auto w = data::make_sift_like(600, 40, 76);
  for (const auto metric : {simd::Metric::kL2, simd::Metric::kInnerProduct}) {
    SegmentedParams params = small_params();
    params.hnsw.metric = metric;
    params.hnsw.seed = 4242;
    const SegmentedIndex seg(w.base.slice(0, w.base.size()), params);
    hnsw::HnswIndex plain(&w.base, params.hnsw);
    plain.build();
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
      for (const std::size_t ef : {std::size_t{0}, std::size_t{16}}) {
        for (std::size_t q = 0; q < w.queries.size(); ++q) {
          const auto got = seg.search(w.queries.row(q), k, ef);
          const auto want = plain.search(w.queries.row(q), k, ef);
          ASSERT_EQ(got.size(), want.size()) << "q=" << q;
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i].id)
                << simd::metric_name(metric) << " k=" << k << " ef=" << ef
                << " q=" << q << " i=" << i;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i].dist),
                      std::bit_cast<std::uint32_t>(want[i].dist))
                << simd::metric_name(metric) << " k=" << k << " ef=" << ef
                << " q=" << q << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SegmentedIndex, InsertIsVisibleImmediately) {
  auto w = data::make_sift_like(200, 5, 72);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params());
  const std::vector<float> v(w.queries.row_span(0).begin(),
                             w.queries.row_span(0).end());
  idx.insert(v, GlobalId(9000));
  EXPECT_EQ(idx.size(), 201u);
  EXPECT_TRUE(idx.contains(GlobalId(9000)));
  EXPECT_EQ(idx.delta_fill(), 1u);
  const auto res = idx.search(v.data(), 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, GlobalId(9000));
}

TEST(SegmentedIndex, EraseHidesIdEverywhere) {
  auto w = data::make_sift_like(200, 10, 73);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params());
  ASSERT_TRUE(idx.erase(GlobalId(17)));
  EXPECT_FALSE(idx.erase(GlobalId(17)));  // already gone
  EXPECT_FALSE(idx.contains(GlobalId(17)));
  EXPECT_EQ(idx.size(), 199u);
  // Query with the erased row itself: its physical row still sits in the
  // frozen segment but must never surface.
  const auto res = idx.search(w.base.row(17), 10);
  EXPECT_FALSE(result_contains(res, GlobalId(17)));
  // ... including after a compaction folds the tombstone away.
  idx.compact();
  EXPECT_FALSE(result_contains(idx.search(w.base.row(17), 10), GlobalId(17)));
}

TEST(SegmentedIndex, DeltaOverflowAutoCompacts) {
  auto w = data::make_sift_like(100, 5, 74);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params(8));
  for (std::size_t i = 0; i < 20; ++i) {
    std::vector<float> v(w.base.row_span(i % 100).begin(),
                         w.base.row_span(i % 100).end());
    v[0] += 1.0f + float(i);
    idx.insert(v, GlobalId(1000 + i));
    EXPECT_LE(idx.delta_fill(), 8u);
    const auto res = idx.search(v.data(), 1);
    ASSERT_FALSE(res.empty());
    EXPECT_EQ(res[0].id, GlobalId(1000 + i));
  }
  EXPECT_EQ(idx.size(), 120u);
  EXPECT_GT(idx.stats().compactions, 0u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(idx.contains(GlobalId(1000 + i)));
  }
}

TEST(SegmentedIndex, MinorCompactionFreezesDeltaOnly) {
  auto w = data::make_sift_like(200, 5, 75);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params());
  for (std::size_t i = 0; i < 10; ++i) {
    idx.insert(w.queries.row_span(i % 5), GlobalId(2000 + i));
  }
  ASSERT_TRUE(idx.erase(GlobalId(3)));  // tombstone against the frozen tier
  ASSERT_TRUE(idx.compact());
  const auto st = idx.stats();
  EXPECT_EQ(st.n_segments, 2u);  // original + freshly frozen delta
  EXPECT_EQ(st.delta_used, 0u);
  // Minor compaction leaves the frozen rows (and the tombstone filtering
  // them) in place.
  EXPECT_EQ(st.tombstones, 1u);
  EXPECT_FALSE(result_contains(idx.search(w.base.row(3), 10), GlobalId(3)));
  EXPECT_EQ(idx.size(), 209u);
}

TEST(SegmentedIndex, FanoutPressureEscalatesToMajor) {
  auto w = data::make_sift_like(64, 5, 76);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params(4));
  // Each overflowing batch of 4 minor-compacts into its own segment; the
  // count must never exceed the fanout bound because a major merge kicks in.
  for (std::size_t i = 0; i < 64; ++i) {
    std::vector<float> v(w.base.row_span(i).begin(), w.base.row_span(i).end());
    v[1] += 2.0f;
    idx.insert(v, GlobalId(500 + i));
    EXPECT_LE(idx.stats().n_segments, SegmentedIndex::kMajorFanout);
  }
  EXPECT_EQ(idx.size(), 128u);
}

TEST(SegmentedIndex, TombstonePressureEscalatesToMajor) {
  auto w = data::make_sift_like(100, 5, 77);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params());
  for (std::size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(idx.erase(GlobalId(i)));
  }
  ASSERT_TRUE(idx.compact());  // 30% tombstoned -> major, purges the set
  const auto st = idx.stats();
  EXPECT_EQ(st.n_segments, 1u);
  EXPECT_EQ(st.tombstones, 0u);
  EXPECT_EQ(st.segment_rows, 70u);  // physically gone, not just hidden
  EXPECT_EQ(idx.size(), 70u);
}

TEST(SegmentedIndex, ReinsertOfErasedIdServesTheNewVector) {
  auto w = data::make_sift_like(100, 5, 78);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params());
  ASSERT_TRUE(idx.erase(GlobalId(42)));
  std::vector<float> v(w.queries.row_span(0).begin(),
                       w.queries.row_span(0).end());
  idx.insert(v, GlobalId(42));
  EXPECT_TRUE(idx.contains(GlobalId(42)));
  EXPECT_EQ(idx.size(), 100u);
  const auto res = idx.search(v.data(), 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, GlobalId(42));
  EXPECT_NEAR(res[0].dist, 0.0f, 1e-3f);  // serves the NEW vector
  // The forced major purge physically removed the old copy and its
  // tombstone; only the fresh delta row carries id 42 now.
  const auto st = idx.stats();
  EXPECT_EQ(st.n_segments, 1u);
  EXPECT_EQ(st.segment_rows, 99u);
  EXPECT_EQ(st.delta_used, 1u);
  EXPECT_EQ(st.tombstones, 0u);
}

TEST(SegmentedIndex, ToBytesRoundTripsSearchState) {
  auto w = data::make_sift_like(300, 20, 79);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params(16));
  for (std::size_t i = 0; i < 24; ++i) {
    idx.insert(w.queries.row_span(i % 20), GlobalId(4000 + i));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.erase(GlobalId(i * 7)));
  }
  const auto bytes = idx.to_bytes();
  const auto clone = SegmentedIndex::from_bytes(bytes);
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->size(), idx.size());
  EXPECT_EQ(clone->dim(), idx.dim());
  EXPECT_EQ(clone->stats().n_segments, idx.stats().n_segments);
  EXPECT_EQ(clone->stats().tombstones, idx.stats().tombstones);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(clone->search(w.queries.row(q), 10),
              idx.search(w.queries.row(q), 10))
        << "query " << q;
  }
  // The clone stays writable: the reloaded delta keeps absorbing.
  clone->insert(w.queries.row_span(0), GlobalId(9999));
  EXPECT_TRUE(clone->contains(GlobalId(9999)));
}

TEST(SegmentedIndex, SnapshotPartsReassembleTheExactImage) {
  auto w = data::make_sift_like(200, 8, 80);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params(16));
  for (std::size_t i = 0; i < 20; ++i) {
    idx.insert(w.queries.row_span(i % 8), GlobalId(6000 + i));
  }
  ASSERT_TRUE(idx.erase(GlobalId(11)));

  const auto parts = idx.snapshot_parts();
  BinaryWriter image;
  image.write_vector(parts.header);
  image.write(std::uint64_t(parts.segments.size()));
  for (const auto& [seg_id, blob] : parts.segments) {
    image.write(seg_id);
    image.write_vector(blob);
  }
  image.write_vector(parts.delta);
  EXPECT_EQ(image.bytes(), idx.to_bytes());

  const auto clone =
      SegmentedIndex::from_parts(parts.header, parts.segments, parts.delta);
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->to_bytes(), idx.to_bytes());
}

TEST(SegmentedIndex, SegmentBlobsAreStableAcrossSnapshots) {
  auto w = data::make_sift_like(150, 4, 81);
  SegmentedIndex idx(w.base.slice(0, w.base.size()), small_params());
  idx.insert(w.queries.row_span(0), GlobalId(7000));
  const auto first = idx.snapshot_parts();
  ASSERT_TRUE(idx.erase(GlobalId(5)));  // mutates delta blob, not segments
  const auto second = idx.snapshot_parts();
  ASSERT_EQ(first.segments.size(), second.segments.size());
  for (std::size_t i = 0; i < first.segments.size(); ++i) {
    EXPECT_EQ(first.segments[i].first, second.segments[i].first);
    EXPECT_EQ(first.segments[i].second, second.segments[i].second);
  }
  EXPECT_NE(first.delta, second.delta);
}

// ---- decoding malformed images ---------------------------------------------

constexpr std::size_t kDecodeDim = 8;

/// Small rows so that most of an image is structure, not float payload.
data::Dataset decode_rows(std::size_t n, GlobalId first_id, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset ds(n, kDecodeDim);
  std::vector<float> row(kDecodeDim);
  for (std::size_t i = 0; i < n; ++i) {
    for (float& x : row) x = rng.uniformf();
    ds.set_row(i, row);
    ds.set_id(i, first_id + i);
  }
  return ds;
}

/// An image with two frozen segments (the delta overflowed once), a
/// partly filled delta and tombstones; SQ8 segments when `quantize`.
std::vector<std::byte> decode_image(bool quantize) {
  SegmentedParams p = small_params(16);
  p.quantize_frozen = quantize;
  SegmentedIndex idx(decode_rows(150, 0, 90), p);
  const auto extra = decode_rows(20, 1000, 91);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    idx.insert(extra.row_span(i), extra.id(i));
  }
  for (GlobalId id : {3, 77, 1002}) EXPECT_TRUE(idx.erase(id));
  EXPECT_EQ(idx.stats().n_segments, 2u);
  EXPECT_GT(idx.stats().delta_used, 0u);
  return idx.to_bytes();
}

const std::vector<std::byte>& float_image() {
  static const auto bytes = decode_image(false);
  return bytes;
}
const std::vector<std::byte>& quant_image() {
  static const auto bytes = decode_image(true);
  return bytes;
}

// Image layout: u64 header length, then the header (u32 magic, u32
// version, u64 dim, u32 metric, u64 M, u64 ef_construction, u64 ef_search,
// f64 level_mult, u64 seed, u64 delta_capacity, u64 next_segment_id, and
// f64 float_cache_fraction when quantized), then u64 n_segments.
constexpr std::size_t kAtDim = 16;
constexpr std::size_t kAtMetric = 24;
constexpr std::size_t kAtDeltaCapacity = 68;
constexpr std::size_t kAtSegmentsFloat = 84;
constexpr std::size_t kAtSegmentsQuant = 92;

template <class T>
std::vector<std::byte> patched(const std::vector<std::byte>& image,
                               std::size_t at, T value) {
  auto bytes = image;
  std::memcpy(bytes.data() + at, &value, sizeof(T));
  return bytes;
}

void expect_rejected(const std::vector<std::byte>& bytes) {
  EXPECT_THROW((void)SegmentedIndex::from_bytes(bytes), Error);
}

TEST(SegmentedDecode, TheUnpatchedImagesRoundTrip) {
  for (const auto* image : {&float_image(), &quant_image()}) {
    EXPECT_EQ(SegmentedIndex::from_bytes(*image)->to_bytes(), *image);
  }
  // The layout constants above point where the tests below expect.
  std::uint64_t n_segments = 0;
  std::memcpy(&n_segments, float_image().data() + kAtSegmentsFloat, 8);
  EXPECT_EQ(n_segments, 2u);
  std::memcpy(&n_segments, quant_image().data() + kAtSegmentsQuant, 8);
  EXPECT_EQ(n_segments, 2u);
}

TEST(SegmentedDecode, RejectsAnUnknownMetric) {
  for (const auto* image : {&float_image(), &quant_image()}) {
    // High byte of the metric code: once a segfault in the delta replay.
    expect_rejected(patched<std::uint8_t>(*image, kAtMetric + 3, 0x80));
    expect_rejected(patched<std::uint32_t>(*image, kAtMetric, 4));
  }
}

TEST(SegmentedDecode, RejectsASegmentCountTheImageCannotHold) {
  for (std::uint64_t n : {std::uint64_t{1} << 26, std::uint64_t{1} << 40,
                          ~std::uint64_t{0}}) {
    expect_rejected(patched(float_image(), kAtSegmentsFloat, n));
    expect_rejected(patched(quant_image(), kAtSegmentsQuant, n));
  }
}

TEST(SegmentedDecode, RejectsADeltaCapacityAboveTheBound) {
  for (const auto* image : {&float_image(), &quant_image()}) {
    for (std::uint64_t cap :
         {std::uint64_t{SegmentedParams::kMaxDeltaCapacity} + 1,
          std::uint64_t{1} << 32, std::uint64_t{1} << 50}) {
      expect_rejected(patched(*image, kAtDeltaCapacity, cap));
    }
    // capacity x dim x sizeof(float) past 2^64.
    expect_rejected(patched(*image, kAtDim, std::uint64_t{1} << 62));
  }
  EXPECT_THROW(SegmentedIndex(decode_rows(4, 0, 93),
                              small_params(SegmentedParams::kMaxDeltaCapacity + 1)),
               Error);
}

TEST(SegmentedDecode, SeededByteMutationsDecodeSafelyOrThrow) {
  const auto queries = decode_rows(4, 0, 92);
  for (const auto* image : {&float_image(), &quant_image()}) {
    Rng rng(1);
    std::size_t decoded = 0, rejected = 0;
    for (int iter = 0; iter < 1500; ++iter) {
      auto bytes = *image;
      if (iter % 4 == 3) {
        bytes.resize(rng.uniform_below(bytes.size()));  // truncation
      } else {
        const auto n_flips = 1 + rng.uniform_below(4);
        for (std::uint64_t f = 0; f < n_flips; ++f) {
          bytes[rng.uniform_below(bytes.size())] =
              std::byte(rng.uniform_below(256));
        }
      }
      try {
        const auto idx = SegmentedIndex::from_bytes(bytes);
        ++decoded;
        for (std::size_t q = 0; q < queries.size(); ++q) {
          ASSERT_LE(idx->search(queries.row(q), 10).size(), 10u);
        }
      } catch (const Error&) {
        ++rejected;
      }
    }
    // Both outcomes must occur for the loop to test anything.
    const char* kind = image == &float_image() ? "float" : "sq8";
    RecordProperty(std::string(kind) + "_decoded", int(decoded));
    RecordProperty(std::string(kind) + "_rejected", int(rejected));
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

}  // namespace
}  // namespace annsim::segment
