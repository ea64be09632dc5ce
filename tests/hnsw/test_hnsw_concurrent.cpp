/// \file test_hnsw_concurrent.cpp
/// \brief Concurrent insert + search on an unfrozen graph. Separate
/// binary so the TSan CI job can exercise it by name; the entry-point
/// snapshot race this guards against (entry_point/max_level read without
/// entry_mu) was TSan-visible before the fix.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"

namespace annsim::hnsw {
namespace {

TEST(HnswConcurrent, SearchDuringInsertIsRaceFree) {
  auto w = data::make_sift_like(1500, 20, 67);
  HnswParams p;
  p.M = 8;
  p.ef_construction = 40;
  p.seed = 99;
  HnswIndex index(&w.base, p);

  // Seed a few nodes so searches always have an entry point.
  constexpr std::size_t kSeeded = 32;
  for (std::size_t i = 0; i < kSeeded; ++i) index.insert(LocalId(i));

  std::atomic<bool> done{false};
  std::atomic<std::size_t> next{kSeeded};

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n_writers = hw > 4 ? 3 : 2;
  const std::size_t n_readers = hw > 4 ? 3 : 2;

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < n_writers; ++t) {
    writers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= w.base.size()) break;
        index.insert(LocalId(i));
      }
    });
  }

  std::vector<std::thread> readers;
  std::atomic<std::size_t> searches{0};
  for (std::size_t t = 0; t < n_readers; ++t) {
    readers.emplace_back([&, t] {
      std::size_t q = t;
      while (!done.load(std::memory_order_acquire)) {
        auto res = index.search(w.queries.row(q % w.queries.size()), 5);
        EXPECT_LE(res.size(), 5u);
        for (std::size_t i = 1; i < res.size(); ++i)
          EXPECT_LE(res[i - 1].dist, res[i].dist);  // sorted output
        ++q;
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(index.size(), w.base.size());
  EXPECT_GT(searches.load(), 0u);

  // After quiescence the graph freezes; the frozen path must see every node.
  index.freeze();
  auto res = index.search(w.queries.row(0), 10, /*ef=*/64);
  EXPECT_EQ(res.size(), 10u);
}

TEST(HnswConcurrent, ParallelBuildThenConcurrentFrozenSearches) {
  auto w = data::make_sift_like(1200, 16, 5);
  HnswParams p;
  p.M = 8;
  p.ef_construction = 40;
  HnswIndex index(&w.base, p);
  ThreadPool pool(4);
  index.build(&pool);
  ASSERT_TRUE(index.is_frozen());

  // Frozen searches are lock-free; hammer them from several threads and
  // check they all agree with a single-threaded reference pass.
  std::vector<std::vector<Neighbor>> ref;
  for (std::size_t q = 0; q < w.queries.size(); ++q)
    ref.push_back(index.search(w.queries.row(q), 8));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 5; ++rep) {
        for (std::size_t q = 0; q < w.queries.size(); ++q) {
          auto res = index.search(w.queries.row(q), 8);
          ASSERT_EQ(res.size(), ref[q].size());
          for (std::size_t i = 0; i < res.size(); ++i) {
            EXPECT_EQ(res[i].id, ref[q][i].id);
            EXPECT_EQ(res[i].dist, ref[q][i].dist);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace annsim::hnsw
