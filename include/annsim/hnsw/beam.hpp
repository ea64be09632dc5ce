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
/// The beam is one candidate pool sorted ascending by (dist, node) with an
/// "expanded" flag per entry; each step expands the first unexpanded entry.
/// Candidates are totally ordered by (dist, node), so the beam's result
/// depends only on the graph and the distances.

#include <algorithm>
#include <cstdint>
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
};

/// Per-search working memory. Pooled, so a warmed-up search allocates
/// nothing but its result.
struct BeamScratch {
  std::vector<std::uint32_t> stamp;  ///< epoch-stamped visited set
  std::uint32_t epoch = 0;
  std::vector<LocalId> ids;    ///< unvisited-neighbour gather
  std::vector<float> dists;    ///< batched kernel output
  std::vector<LocalId> links;  ///< a list copied under its node's mutex
  /// The candidate pool, ascending by (dist, node). After beam_layer it
  /// holds the nearest ef candidates found.
  std::vector<Cand> best;
  std::vector<std::uint8_t> expanded;  ///< parallel to best

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
  /// Copies the not-yet-visited ids of `from` into ids[0, m), marks them
  /// visited and returns m. Every id is written and only unvisited ones
  /// advance m, so there is no branch per id.
  std::size_t gather_unvisited(std::span<const LocalId> from) noexcept {
    std::size_t m = 0;
    for (LocalId v : from) {
      ids[m] = v;
      m += stamp[v] != epoch;
      stamp[v] = epoch;
    }
    return m;
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
/// of them). Leaves the nearest ef candidates in s.best, ascending by
/// (dist, node).
///
/// A candidate is admitted iff the pool holds fewer than ef entries or its
/// distance is strictly below pool[ef-1]'s. Entries pushed past index ef-1
/// stay (the "tie tail") only while their distance equals pool[ef-1]'s: a
/// candidate tied with the ef-th best is still expanded, because the
/// classic stop test "nearest unexpanded > worst kept" is strict, and the
/// graph and results depend on those expansions.
template <class DistBatch>
void beam_layer(const FlatGraph& g, std::mutex* locks,
                std::span<const LocalId> entries, int layer, std::size_t ef,
                BeamScratch& s, DistBatch&& dist) {
  s.new_epoch();
  auto& pool = s.best;
  auto& done = s.expanded;
  pool.clear();
  done.clear();
  s.reserve_lanes(std::max(entries.size(), g.capacity(0)));
  std::size_t cursor = 0;  // first unexpanded pool entry
  const auto admit = [&](std::size_t m) {
    dist(s.ids.data(), m, s.dists.data());
    for (std::size_t i = 0; i < m; ++i) {
      const Cand c{s.dists[i], s.ids[i]};
      if (pool.size() >= ef && !(c.dist < pool[ef - 1].dist)) continue;
      // Insertion step: shift larger entries up one, from the back.
      std::size_t pos = pool.size();
      pool.push_back(c);
      done.push_back(0);
      for (; pos > 0 && c < pool[pos - 1]; --pos) {
        pool[pos] = pool[pos - 1];
        done[pos] = done[pos - 1];
      }
      pool[pos] = c;
      done[pos] = 0;
      cursor = std::min(cursor, pos);
      if (pool.size() > ef) {  // keep only the tail tied with pool[ef-1]
        const float worst = pool[ef - 1].dist;
        std::size_t end = ef;
        while (end < pool.size() && pool[end].dist == worst) ++end;
        pool.resize(end);
        done.resize(end);
      }
    }
  };
  admit(s.gather_unvisited(entries));

  while (cursor < pool.size()) {
    done[cursor] = 1;
    const LocalId v = pool[cursor].node;

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
    const std::size_t m = s.gather_unvisited(neigh);
    if (m != 0) admit(m);
    while (cursor < pool.size() && done[cursor]) ++cursor;
    // Warm the next expansion's adjacency block.
    if (cursor < pool.size()) g.prefetch0(pool[cursor].node);
  }
  if (pool.size() > ef) {
    pool.resize(ef);
    done.resize(ef);
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
