/// \file test_hnsw_golden.cpp
/// \brief Golden hashes of the serialized graph. Construction is
/// deterministic for a fixed seed and a single-threaded insertion order, so
/// the ANN1 image of `HnswIndex::to_bytes()` (and the ANQ1 image of
/// `SqSegment::to_bytes()`, which embeds the same graph) is pinned here
/// byte-for-byte. Any change to level assignment, beam search, neighbour
/// selection, link order or the wire format moves a hash.
///
/// On a mismatch the test prints the hash it computed. Update a pinned value
/// only for a change that is meant to alter the graph or the format.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <span>
#include <sstream>
#include <vector>

#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/quant/sq_segment.hpp"

namespace annsim::hnsw {
namespace {

std::uint64_t fnv64(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= std::uint64_t(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

const data::Workload& golden_workload() {
  static const data::Workload w = data::make_sift_like(600, 4, 2024);
  return w;
}

HnswParams golden_params(simd::Metric metric) {
  HnswParams p;
  p.M = 8;
  p.ef_construction = 40;
  p.ef_search = 32;
  p.seed = 99;
  p.metric = metric;
  return p;
}

struct GraphCase {
  const char* name;
  simd::Metric metric;
  std::uint64_t hash;
};

void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

class HnswGoldenBytes : public ::testing::TestWithParam<GraphCase> {};

TEST_P(HnswGoldenBytes, SingleThreadedBuild) {
  const GraphCase& c = GetParam();
  HnswIndex index(&golden_workload().base, golden_params(c.metric));
  index.build();  // no pool: insertion order 0, 1, ..., n-1
  const std::uint64_t got = fnv64(index.to_bytes());
  EXPECT_EQ(got, c.hash) << c.name << " computed " << hex(got);
}

INSTANTIATE_TEST_SUITE_P(
    Metrics, HnswGoldenBytes,
    ::testing::Values(GraphCase{"L2", simd::Metric::kL2, 0x0c2f1d5bbe05f0b3},
                      GraphCase{"L1", simd::Metric::kL1, 0x280a20a453737e9f},
                      GraphCase{"IP", simd::Metric::kInnerProduct,
                                0xe8125773f06fc3d2},
                      GraphCase{"Cosine", simd::Metric::kCosine,
                                0x0d4703938de4a43c}),
    [](const ::testing::TestParamInfo<GraphCase>& p) {
      return std::string(p.param.name);
    });

TEST(HnswGolden, UnfrozenInsertLoopBytes) {
  // A strided insertion order over two thirds of the rows: the image carries
  // zero-layer records for the rows never inserted, and the graph stays in
  // its unfrozen form.
  const auto& base = golden_workload().base;
  HnswIndex index(&base, golden_params(simd::Metric::kL2));
  const std::size_t n = base.size();
  for (std::size_t i = 0; i < n * 2 / 3; ++i) {
    index.insert(LocalId(i * 7 % n));
  }
  ASSERT_FALSE(index.is_frozen());
  const std::uint64_t got = fnv64(index.to_bytes());
  EXPECT_EQ(got, 0xfd99ec734be1a86fULL) << "computed " << hex(got);
}

TEST(HnswGolden, SqSegmentBytes) {
  const auto& base = golden_workload().base;
  const struct {
    simd::Metric metric;
    std::uint64_t hash;
  } cases[] = {{simd::Metric::kL2, 0x3df773a541b9bf8aULL},
               {simd::Metric::kInnerProduct, 0x1a0fd1e7008bb705ULL}};
  for (const auto& c : cases) {
    quant::SqSegmentParams p;
    p.hnsw = golden_params(c.metric);
    p.float_cache_fraction = 0.05;
    const auto seg = quant::SqSegment::build(base, p);
    const std::uint64_t got = fnv64(seg->to_bytes());
    EXPECT_EQ(got, c.hash) << simd::metric_name(c.metric) << " computed "
                           << hex(got);
  }
}

}  // namespace
}  // namespace annsim::hnsw
