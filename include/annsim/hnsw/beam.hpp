#pragma once
/// \file beam.hpp
/// \brief The one HNSW beam search (Algorithm 2 of the HNSW paper) and its
/// pooled working memory. Construction, the unfrozen search, the frozen
/// float search and the SQ8 code search all run this routine over the one
/// adjacency store (FlatGraph). It is parameterised by
///  * the neighbour accessor: lists are read in place once the graph is
///    frozen (`locks == nullptr`), or copied under the node's mutex while
///    inserts may rewrite them;
///  * a batched distance function `dist(ids, m, out)` writing search-space
///    distances: `search_dist_batch` over float rows, the uint8 kernels over
///    SQ8 code rows.
/// Candidates are totally ordered by (dist, node), so the beam's result
/// depends only on the graph and the distances.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "annsim/common/types.hpp"
#include "annsim/hnsw/flat_graph.hpp"
#include "annsim/simd/distance.hpp"

namespace annsim::hnsw {

/// Beam candidate in search-space distance (squared L2 for kL2).
struct Cand {
  float dist;
  LocalId node;
  friend bool operator<(const Cand& a, const Cand& b) noexcept {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
  }
  friend bool operator>(const Cand& a, const Cand& b) noexcept { return b < a; }
};

/// Max-heap over a vector: front() is the worst candidate kept.
inline void max_push(std::vector<Cand>& h, Cand c) {
  h.push_back(c);
  std::push_heap(h.begin(), h.end());
}
inline void max_pop(std::vector<Cand>& h) {
  std::pop_heap(h.begin(), h.end());
  h.pop_back();
}

/// Per-search working memory. Pooled, so a warmed-up search allocates
/// nothing but its result.
struct BeamScratch {
  std::vector<std::uint32_t> stamp;  ///< epoch-stamped visited set
  std::uint32_t epoch = 0;
  std::vector<LocalId> ids;    ///< unvisited-neighbour gather
  std::vector<float> dists;    ///< batched kernel output
  std::vector<LocalId> links;  ///< a list copied under its node's mutex
  std::vector<Cand> frontier;  ///< min-heap: candidates left to expand
  std::vector<Cand> best;      ///< max-heap: the nearest ef so far

  void reserve_lanes(std::size_t lanes) {
    if (ids.size() < lanes) {
      ids.resize(lanes);
      dists.resize(lanes);
    }
  }
  void new_epoch() {
    if (++epoch == 0) {  // wrapped: reset all stamps
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }
  bool test_and_set(LocalId v) noexcept {
    if (stamp[v] == epoch) return true;
    stamp[v] = epoch;
    return false;
  }
};

/// Pool of BeamScratch; a Lease hands its scratch back when destroyed.
class BeamPool {
 public:
  struct Return {
    BeamPool* pool;
    void operator()(BeamScratch* s) const {
      std::lock_guard lk(pool->mu_);
      pool->free_.emplace_back(s);
    }
  };
  using Lease = std::unique_ptr<BeamScratch, Return>;

  /// A scratch whose visited set covers nodes [0, n).
  Lease acquire(std::size_t n) {
    std::unique_ptr<BeamScratch> s;
    {
      std::lock_guard lk(mu_);
      if (!free_.empty()) {
        s = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!s) s = std::make_unique<BeamScratch>();
    if (s->stamp.size() < n) s->stamp.resize(n, 0);
    return Lease(s.release(), Return{this});
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<BeamScratch>> free_;
};

/// Beam search of width `ef` within one layer, from `entries` (at most ef
/// of them). Leaves the nearest ef candidates in s.best, max-heap ordered.
template <class DistBatch>
void beam_layer(const FlatGraph& g, std::mutex* locks,
                std::span<const LocalId> entries, int layer, std::size_t ef,
                BeamScratch& s, DistBatch&& dist) {
  s.new_epoch();
  s.frontier.clear();
  s.best.clear();
  s.reserve_lanes(std::max(entries.size(), g.capacity(0)));
  const auto admit = [&](std::size_t m) {
    dist(s.ids.data(), m, s.dists.data());
    for (std::size_t i = 0; i < m; ++i) {
      const Cand c{s.dists[i], s.ids[i]};
      if (s.best.size() < ef || c.dist < s.best.front().dist) {
        s.frontier.push_back(c);
        std::push_heap(s.frontier.begin(), s.frontier.end(), std::greater<>{});
        max_push(s.best, c);
        if (s.best.size() > ef) max_pop(s.best);
      }
    }
  };
  std::size_t m = 0;
  for (LocalId e : entries) {
    if (!s.test_and_set(e)) s.ids[m++] = e;
  }
  admit(m);

  while (!s.frontier.empty()) {
    if (s.best.size() >= ef && s.frontier.front().dist > s.best.front().dist) {
      break;
    }
    std::pop_heap(s.frontier.begin(), s.frontier.end(), std::greater<>{});
    const LocalId v = s.frontier.back().node;
    s.frontier.pop_back();

    std::span<const LocalId> neigh;
    if (locks == nullptr) {
      neigh = g.neighbors(v, layer);
    } else {
      std::lock_guard lk(locks[v]);
      const auto src = g.neighbors(v, layer);
      s.links.assign(src.begin(), src.end());
      neigh = s.links;
    }
    for (LocalId nb : neigh) simd::prefetch_line(&s.stamp[nb]);
    m = 0;
    for (LocalId nb : neigh) {
      if (!s.test_and_set(nb)) s.ids[m++] = nb;
    }
    if (m != 0) admit(m);
    // Warm the next expansion's adjacency block while the heaps settle.
    if (!s.frontier.empty()) g.prefetch0(s.frontier.front().node);
  }
}

/// Greedy descent (beam width 1) from `ep` at layer `top` through every
/// layer above `stop`; returns the nearest node found.
template <class DistBatch>
LocalId descend(const FlatGraph& g, std::mutex* locks, LocalId ep, int top,
                int stop, BeamScratch& s, DistBatch&& dist) {
  for (int layer = top; layer > stop; --layer) {
    beam_layer(g, locks, {&ep, 1}, layer, 1, s, dist);
    ep = s.best.front().node;
  }
  return ep;
}

}  // namespace annsim::hnsw
