/// Golden results for the distributed search plane.
///
/// Every deterministic search configuration is pinned by one 64-bit hash over
/// its top-k ids, the bit patterns of its distances, `total_jobs` and
/// `jobs_per_worker`. The matrix crosses the result transport (one-sided RMA
/// accumulate vs two-sided sends), failure detection (off vs armed with no
/// fault), replication (r = 1, 2) and the frozen tier of the HNSW (segmented)
/// local index (float, SQ8), plus exact two-phase routing with HNSW and
/// brute force, and the multiple-owner strategy. A fault-free batch must
/// produce the same hash whether or not detection is armed: detection only
/// bounds how long the master waits.
///
/// A second table pins write-then-search: the engine absorbs inserts and
/// deletes, is searched, compacts, and is searched again; both searches are
/// hashed the same way.
///
/// On a mismatch the test prints the hash it computed; a change that alters
/// search results on purpose must update the table and say why.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"

namespace annsim::core {
namespace {

struct GoldenCase {
  const char* name;
  std::uint64_t hash;
  bool one_sided = true;
  bool detect = false;
  std::size_t replication = 1;
  LocalIndexKind index = LocalIndexKind::kHnsw;
  bool quantize = false;
  bool exact_routing = false;
  DispatchStrategy strategy = DispatchStrategy::kMasterWorker;
};

class Fnv64 {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_search(const data::KnnResults& res, const SearchStats& st) {
  Fnv64 h;
  h.add(res.size());
  for (const auto& row : res) {
    h.add(row.size());
    for (const Neighbor& n : row) {
      h.add(n.id);
      h.add(std::bit_cast<std::uint32_t>(n.dist));
    }
  }
  h.add(st.total_jobs);
  h.add(st.jobs_per_worker.size());
  for (const auto j : st.jobs_per_worker) h.add(j);
  return h.value();
}

EngineConfig golden_config(const GoldenCase& c) {
  EngineConfig cfg;
  cfg.n_workers = 4;
  cfg.n_probe = 2;
  cfg.threads_per_worker = 2;
  cfg.hnsw.M = 8;
  cfg.hnsw.ef_construction = 48;
  cfg.partitioner.vantage_candidates = 8;
  cfg.partitioner.vantage_sample = 32;
  cfg.one_sided = c.one_sided;
  cfg.result_timeout_ms = c.detect ? 2000.0 : 0.0;
  cfg.replication = c.replication;
  cfg.local_index = c.index;
  cfg.quantize_frozen = c.quantize;
  cfg.exact_routing = c.exact_routing;
  cfg.strategy = c.strategy;
  return cfg;
}

const data::Workload& workload() {
  static const data::Workload w = data::make_sift_like(1200, 40, 1701);
  return w;
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return info.param.name;
}

class SearchGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SearchGolden, HashMatches) {
  const GoldenCase& c = GetParam();
  const auto& w = workload();
  DistributedAnnEngine eng(&w.base, golden_config(c));
  eng.build();
  SearchStats st;
  const auto res = eng.search(w.queries, 10, 0, &st);
  const std::uint64_t got = hash_search(res, st);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, c.hash) << c.name << " computed " << hex;
  EXPECT_EQ(st.workers_failed, 0u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.degraded_queries, 0u);
  // Master-worker batches report coverage whether or not detection is armed;
  // fault-free, every query covers its whole plan.
  if (c.strategy == DispatchStrategy::kMasterWorker) {
    ASSERT_EQ(st.coverage.size(), w.queries.size());
    for (const QueryCoverage& cov : st.coverage) {
      EXPECT_GT(cov.partitions_planned, 0u);
      EXPECT_EQ(cov.partitions_searched, cov.partitions_planned);
    }
  }
}

constexpr auto kSeg = LocalIndexKind::kSegmented;
constexpr auto kBrute = LocalIndexKind::kBruteForce;

// {name, hash, one_sided, detect, replication, index, quantize, exact, strategy}
const GoldenCase kCases[] = {
    {"OneSidedOffR1Seg", 0x99e77972adbad6aaULL, true, false, 1, kSeg},
    {"OneSidedOffR2Seg", 0x82429c420f4c0048ULL, true, false, 2, kSeg},
    {"OneSidedOffR1Sq8", 0x697361385a792f4aULL, true, false, 1, kSeg, true},
    {"OneSidedOffR2Sq8", 0x51ce8407bc0a58e8ULL, true, false, 2, kSeg, true},
    {"OneSidedArmedR1Seg", 0x99e77972adbad6aaULL, true, true, 1, kSeg},
    {"OneSidedArmedR2Seg", 0x82429c420f4c0048ULL, true, true, 2, kSeg},
    {"OneSidedArmedR1Sq8", 0x697361385a792f4aULL, true, true, 1, kSeg, true},
    {"OneSidedArmedR2Sq8", 0x51ce8407bc0a58e8ULL, true, true, 2, kSeg, true},
    {"TwoSidedOffR1Seg", 0x99e77972adbad6aaULL, false, false, 1, kSeg},
    {"TwoSidedOffR2Seg", 0x82429c420f4c0048ULL, false, false, 2, kSeg},
    {"TwoSidedOffR1Sq8", 0x697361385a792f4aULL, false, false, 1, kSeg, true},
    {"TwoSidedOffR2Sq8", 0x51ce8407bc0a58e8ULL, false, false, 2, kSeg, true},
    {"TwoSidedArmedR1Seg", 0x99e77972adbad6aaULL, false, true, 1, kSeg},
    {"TwoSidedArmedR2Seg", 0x82429c420f4c0048ULL, false, true, 2, kSeg},
    {"TwoSidedArmedR1Sq8", 0x697361385a792f4aULL, false, true, 1, kSeg, true},
    {"TwoSidedArmedR2Sq8", 0x51ce8407bc0a58e8ULL, false, true, 2, kSeg, true},
    {"ExactR1Seg", 0x1179b7e2c3281380ULL, true, false, 1, kSeg, false, true},
    {"ExactR2Seg", 0x532c4448ec81970cULL, true, false, 2, kSeg, false, true},
    {"ExactR1BruteForce", 0x1179b7e2c3281380ULL, true, false, 1, kBrute, false,
     true},
    {"ExactR2BruteForce", 0x532c4448ec81970cULL, true, false, 2, kBrute, false,
     true},
    {"MultipleOwnerR1Seg", 0x99e77972adbad6aaULL, false, false, 1, kSeg, false,
     false, DispatchStrategy::kMultipleOwner},
};

INSTANTIATE_TEST_SUITE_P(Matrix, SearchGolden, ::testing::ValuesIn(kCases),
                         case_name);

// Armed detection with no fault is the same computation as detection off:
// each armed case must pin the same hash as its detection-off twin.
TEST(SearchGoldenTable, ArmedCasesShareTheirDetectionOffHash) {
  for (const GoldenCase& armed : kCases) {
    if (!armed.detect) continue;
    bool found = false;
    for (const GoldenCase& off : kCases) {
      if (off.detect || off.one_sided != armed.one_sided ||
          off.replication != armed.replication || off.index != armed.index ||
          off.quantize != armed.quantize || off.exact_routing ||
          off.strategy != armed.strategy) {
        continue;
      }
      found = true;
      EXPECT_EQ(armed.hash, off.hash) << armed.name << " vs " << off.name;
    }
    EXPECT_TRUE(found) << armed.name;
  }
}

// ---- write-then-search ----

struct WriteGoldenCase {
  const char* name;
  std::uint64_t after_writes;   ///< insert + remove, then search
  std::uint64_t after_compact;  ///< then compact(), then search again
  std::size_t replication = 1;
  bool quantize = false;
};

/// Rows to stream in: every query, and every query shifted by +0.5 in each
/// coordinate, so the inserted rows land in the queries' top-k.
data::Dataset insert_rows() {
  const data::Dataset& q = workload().queries;
  data::Dataset rows(2 * q.size(), q.dim());
  for (std::size_t i = 0; i < q.size(); ++i) {
    for (std::size_t d = 0; d < q.dim(); ++d) {
      rows.row(i)[d] = q.row(i)[d];
      rows.row(q.size() + i)[d] = q.row(i)[d] + 0.5f;
    }
  }
  return rows;
}

std::string write_case_name(
    const ::testing::TestParamInfo<WriteGoldenCase>& info) {
  return info.param.name;
}

class SearchGoldenWrites : public ::testing::TestWithParam<WriteGoldenCase> {};

TEST_P(SearchGoldenWrites, HashesMatch) {
  const WriteGoldenCase& c = GetParam();
  const auto& w = workload();
  GoldenCase base{c.name, 0};
  base.replication = c.replication;
  base.quantize = c.quantize;
  DistributedAnnEngine eng(&w.base, golden_config(base));
  eng.build();

  const WriteStats ins = eng.insert(insert_rows());
  ASSERT_EQ(ins.assigned_ids.size(), 2 * w.queries.size());
  // Tombstone every third streamed row (still in the delta) and every fifth
  // build row (in the frozen segments).
  std::vector<GlobalId> gone;
  for (std::size_t i = 0; i < ins.assigned_ids.size(); i += 3) {
    gone.push_back(ins.assigned_ids[i]);
  }
  for (GlobalId id = 0; id < w.base.size(); id += 5) gone.push_back(id);
  const WriteStats del = eng.remove(gone);
  EXPECT_EQ(del.erased_replicas, gone.size() * c.replication);

  const auto pin = [&](std::uint64_t want, const char* stage) {
    SearchStats st;
    const auto res = eng.search(w.queries, 10, 0, &st);
    for (const auto& row : res) {
      for (const Neighbor& n : row) {
        EXPECT_EQ(std::find(gone.begin(), gone.end(), n.id), gone.end())
            << stage << ": deleted id " << n.id << " returned";
      }
    }
    const std::uint64_t got = hash_search(res, st);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, want) << c.name << " " << stage << " computed " << hex;
  };
  pin(c.after_writes, "after writes");
  EXPECT_GT(eng.compact(), 0u);
  EXPECT_EQ(eng.max_delta_fill(), 0u);
  pin(c.after_compact, "after compact");
}

// {name, after_writes, after_compact, replication, quantize}
const WriteGoldenCase kWriteCases[] = {
    {"WritesR1Float", 0xa660094f22d5538fULL, 0xa660094f22d5538fULL,
     1, false},
    {"WritesR2Float", 0xa0c0182a3eda49edULL, 0xa0c0182a3eda49edULL,
     2, false},
    {"WritesR1Sq8", 0xaaa6a64d3c97a729ULL, 0xc8516aafdf93e06bULL,
     1, true},
    {"WritesR2Sq8", 0x42310d8599d80c8bULL, 0x42970392ba6a65c9ULL,
     2, true},
};

INSTANTIATE_TEST_SUITE_P(Matrix, SearchGoldenWrites,
                         ::testing::ValuesIn(kWriteCases), write_case_name);

}  // namespace
}  // namespace annsim::core
