/// \file test_hnsw_decode.cpp
/// \brief The ANN1 decoder (`HnswIndex::from_bytes`) against malformed
/// images. A decode must either yield an index that searches safely or throw
/// annsim::Error: never allocate from an unchecked length, never accept a
/// link that points outside the dataset.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"

namespace annsim::hnsw {
namespace {

const data::Workload& decode_workload() {
  static const data::Workload w = data::make_sift_like(300, 8, 515);
  return w;
}

HnswParams decode_params() {
  HnswParams p;
  p.M = 6;
  p.ef_construction = 32;
  p.ef_search = 24;
  p.seed = 7;
  return p;
}

const std::vector<std::byte>& image() {
  static const std::vector<std::byte> bytes = [] {
    HnswIndex index(&decode_workload().base, decode_params());
    index.build();
    return index.to_bytes();
  }();
  return bytes;
}

// ANN1 layout: u32 magic, u64 M, u64 ef_construction, u64 ef_search,
// f64 level_mult, u64 seed, i32 metric, u64 n, i32 max_level, u32 entry,
// then per node: u32 layer count, per layer u64 count + LocalId ids.
constexpr std::size_t kAtM = 4;
constexpr std::size_t kAtEfc = 12;
constexpr std::size_t kAtMetric = 44;
constexpr std::size_t kAtEntry = 60;
constexpr std::size_t kAtNode0 = 64;
constexpr std::size_t kAtNode0Count0 = kAtNode0 + 4;
constexpr std::size_t kAtNode0Link0 = kAtNode0Count0 + 8;

template <class T>
std::vector<std::byte> patched(std::size_t at, T value) {
  auto bytes = image();
  std::memcpy(bytes.data() + at, &value, sizeof(T));
  return bytes;
}

void expect_rejected(const std::vector<std::byte>& bytes) {
  EXPECT_THROW((void)HnswIndex::from_bytes(bytes, &decode_workload().base),
               Error);
}

TEST(HnswDecode, TheUnpatchedImageDecodes) {
  const auto index = HnswIndex::from_bytes(image(), &decode_workload().base);
  EXPECT_EQ(index.size(), decode_workload().base.size());
  EXPECT_EQ(index.to_bytes(), image());
}

TEST(HnswDecode, RejectsALayerCountAboveCapacityOrTheBytesLeft) {
  // 2^36 links would be a 256 GiB block: must throw before allocating.
  expect_rejected(patched<std::uint64_t>(kAtNode0Count0, std::uint64_t{1} << 36));
  // One past the layer-0 capacity of 2M, with bytes to spare.
  expect_rejected(patched<std::uint64_t>(kAtNode0Count0, 2 * decode_params().M + 1));
}

TEST(HnswDecode, RejectsANeighbourIdOutsideTheDataset) {
  expect_rejected(patched<LocalId>(kAtNode0Link0, 1'000'000));
  expect_rejected(patched<LocalId>(kAtNode0Link0, LocalId(300)));
}

TEST(HnswDecode, RejectsABadEntryPoint) {
  expect_rejected(patched<LocalId>(kAtEntry, LocalId(300)));
  // In range but not on the top level the header names.
  LocalId low = 0;
  HnswIndex index = HnswIndex::from_bytes(image(), &decode_workload().base);
  while (index.flat_graph().level(low) == index.flat_graph().max_level()) ++low;
  expect_rejected(patched<LocalId>(kAtEntry, low));
}

TEST(HnswDecode, RejectsANodeTallerThanTheLayerBound) {
  expect_rejected(patched<std::uint32_t>(kAtNode0, FlatGraph::kMaxLayers + 1));
  expect_rejected(patched<std::uint32_t>(kAtNode0, 0xFFFFFFFFu));
}

TEST(HnswDecode, RejectsHeaderParamsTheConstructorRejects) {
  expect_rejected(patched<std::uint64_t>(kAtM, 1));                  // M < 2
  expect_rejected(patched<std::uint64_t>(kAtM, std::uint64_t{1} << 40));
  expect_rejected(patched<std::uint64_t>(kAtEfc, 2));                // < M
  expect_rejected(patched<std::int32_t>(kAtMetric, 9));              // no metric
}

TEST(HnswDecode, RejectsTrailingBytes) {
  auto bytes = image();
  bytes.push_back(std::byte{0});
  expect_rejected(bytes);
}

TEST(HnswDecode, SeededByteMutationsDecodeSafelyOrThrow) {
  const auto& w = decode_workload();
  Rng rng(20260417);
  std::size_t decoded = 0, rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    auto bytes = image();
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
      const auto index = HnswIndex::from_bytes(bytes, &w.base);
      ++decoded;
      for (std::size_t q = 0; q < w.queries.size(); ++q) {
        const auto res = index.search(w.queries.row(q), 10, 32);
        ASSERT_LE(res.size(), 10u);
        for (const Neighbor& nb : res) ASSERT_LT(nb.id, w.base.size());
      }
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Both outcomes must actually occur for the loop to test anything.
  RecordProperty("decoded", int(decoded));
  RecordProperty("rejected", int(rejected));
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace annsim::hnsw
