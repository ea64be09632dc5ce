/// \file bench_quant.cpp
/// \brief SQ8 quantized-tier benchmark: recall vs memory vs QPS.
///
/// Sweeps the exact-float re-rank cache fraction over a quantized segment
/// and compares against the full-float frozen tier on the same corpus:
///
///   * graph-search QPS + recall@10 (beam over codes, exact re-rank),
///   * brute-force scan QPS (contiguous batched kernels; the memory-bound
///     case where 1 byte/dim beats 4 bytes/dim),
///   * resident bytes vs the full-float equivalent.
///
/// Plain binary so CI smoke jobs can gate on its exit status:
///
///   bench_quant [--n 60000] [--queries 200] [--out BENCH_quant.json]
///               [--mpi-check]
///
/// Exit is non-zero when the default-fraction (0.02) quantized tier misses
/// the acceptance bar: post-re-rank recall@10 < 0.9, or resident-memory
/// reduction < 3x, or (with --mpi-check) an engine-level quantized run's
/// usage-check report is not clean.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "annsim/check/check.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/quant/sq_segment.hpp"
#include "annsim/simd/distance.hpp"

namespace {

using namespace annsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::size_t n = 60000;
  std::size_t n_queries = 200;
  std::string out = "BENCH_quant.json";
  bool mpi_check = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--n") == 0) {
      o.n = std::size_t(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      o.n_queries = std::size_t(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      o.out = next();
    } else if (std::strcmp(argv[i], "--mpi-check") == 0) {
      o.mpi_check = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  return o;
}

double recall_at_k(const std::vector<Neighbor>& got,
                   const std::vector<Neighbor>& want, std::size_t k) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < k && i < got.size(); ++i) {
    for (std::size_t j = 0; j < k && j < want.size(); ++j) {
      if (got[i].id == want[j].id) {
        ++hits;
        break;
      }
    }
  }
  return double(hits) / double(k);
}

/// Full-float brute-force scan with the same blocked batched-kernel shape as
/// SqSegment::scan, so the float-vs-code comparison is kernel-for-kernel.
std::vector<Neighbor> float_scan(const data::Dataset& base, const float* query,
                                 std::size_t k) {
  constexpr std::size_t kBlock = 256;
  std::vector<float> dists(kBlock);
  std::vector<Neighbor> best;  // max-heap on (dist, id)
  for (std::size_t start = 0; start < base.size(); start += kBlock) {
    const std::size_t m = std::min(kBlock, base.size() - start);
    simd::l2_sq_batch(query, base.row(start), base.stride(), base.dim(),
                      nullptr, m, dists.data());
    for (std::size_t i = 0; i < m; ++i) {
      const Neighbor c{dists[i], base.id(start + i)};
      if (best.size() < k) {
        best.push_back(c);
        std::push_heap(best.begin(), best.end());
      } else if (c < best.front()) {
        std::pop_heap(best.begin(), best.end());
        best.back() = c;
        std::push_heap(best.begin(), best.end());
      }
    }
  }
  std::sort_heap(best.begin(), best.end());
  return best;
}

struct TierResult {
  double fraction = -1.0;  ///< < 0 marks the full-float baseline
  double search_qps = 0.0;
  double scan_qps = 0.0;
  double recall_search = 0.0;
  double recall_scan = 0.0;
  std::size_t resident_bytes = 0;
  std::size_t cached_rows = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  constexpr std::size_t kK = 10;
  constexpr std::size_t kEf = 96;
  constexpr double kDefaultFraction = 0.02;

  auto w = data::make_sift_like(opt.n, opt.n_queries, 2027);
  std::printf("bench_quant: n=%zu queries=%zu dim=%zu isa=%s\n", opt.n,
              opt.n_queries, w.base.dim(), simd::kernel_isa().c_str());

  auto t0 = Clock::now();
  const auto gt = data::brute_force_knn(w.base, w.queries, kK, simd::Metric::kL2);
  std::printf("  ground truth: %.2fs\n", seconds_since(t0));

  hnsw::HnswParams hp;
  hp.M = 16;
  hp.ef_construction = 100;
  hp.ef_search = kEf;
  ThreadPool pool;

  // --- full-float baseline: frozen HNSW over raw rows + blocked scan.
  TierResult base_r;
  {
    t0 = Clock::now();
    hnsw::HnswIndex index(&w.base, hp);
    index.build(&pool);
    std::printf("  float build: %.2fs\n", seconds_since(t0));

    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      (void)index.search(w.queries.row(q), kK, kEf);  // warm scratch
    }
    t0 = Clock::now();
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      base_r.recall_search +=
          recall_at_k(index.search(w.queries.row(q), kK, kEf), gt[q], kK);
    }
    base_r.search_qps = double(w.queries.size()) / seconds_since(t0);
    base_r.recall_search /= double(w.queries.size());

    t0 = Clock::now();
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      base_r.recall_scan +=
          recall_at_k(float_scan(w.base, w.queries.row(q), kK), gt[q], kK);
    }
    base_r.scan_qps = double(w.queries.size()) / seconds_since(t0);
    base_r.recall_scan /= double(w.queries.size());
    base_r.resident_bytes = w.base.stride() * w.base.size() * sizeof(float);
    std::printf("  float: search %.0f q/s (recall %.3f), scan %.0f q/s, "
                "%.1f MiB\n",
                base_r.search_qps, base_r.recall_search, base_r.scan_qps,
                double(base_r.resident_bytes) / (1024.0 * 1024.0));
  }

  // --- SQ8 tier: sweep the re-rank cache fraction.
  std::size_t float_bytes = 0;
  std::vector<TierResult> sq;
  for (const double fraction : {0.0, 0.01, 0.02, 0.05}) {
    quant::SqSegmentParams qp;
    qp.hnsw = hp;
    qp.float_cache_fraction = fraction;
    t0 = Clock::now();
    const auto seg = quant::SqSegment::build(w.base, qp, &pool);
    const double build_s = seconds_since(t0);
    float_bytes = seg->float_bytes();

    TierResult r;
    r.fraction = fraction;
    r.resident_bytes = seg->memory_bytes();
    r.cached_rows = seg->cached_rows();

    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      (void)seg->search(w.queries.row(q), kK, kEf);  // warm scratch
    }
    t0 = Clock::now();
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      r.recall_search +=
          recall_at_k(seg->search(w.queries.row(q), kK, kEf), gt[q], kK);
    }
    r.search_qps = double(w.queries.size()) / seconds_since(t0);
    r.recall_search /= double(w.queries.size());

    t0 = Clock::now();
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      r.recall_scan += recall_at_k(seg->scan(w.queries.row(q), kK), gt[q], kK);
    }
    r.scan_qps = double(w.queries.size()) / seconds_since(t0);
    r.recall_scan /= double(w.queries.size());

    std::printf("  sq8 f=%.2f: build %.2fs, search %.0f q/s (recall %.3f), "
                "scan %.0f q/s (recall %.3f), %.1f MiB (%.2fx), %zu cached\n",
                fraction, build_s, r.search_qps, r.recall_search, r.scan_qps,
                r.recall_scan,
                double(r.resident_bytes) / (1024.0 * 1024.0),
                double(float_bytes) / double(r.resident_bytes), r.cached_rows);
    sq.push_back(r);
  }

  // --- engine-level run: quantized segmented partitions end to end, with
  // the MPI usage checker armed when requested.
  double engine_recall = 0.0;
  bool engine_check_clean = true;
  {
    core::EngineConfig cfg;
    cfg.n_workers = 4;
    cfg.n_probe = 4;
    cfg.threads_per_worker = 1;
    cfg.quantize_frozen = true;
    cfg.float_cache_fraction = kDefaultFraction;
    cfg.hnsw = hp;
    if (opt.mpi_check) {
      cfg.mpi_check = true;
      cfg.check_fatal = false;
    }
    core::DistributedAnnEngine engine(&w.base, cfg);
    engine.build();
    const auto results = engine.search(w.queries, kK, kEf);
    for (std::size_t q = 0; q < results.size(); ++q) {
      engine_recall += recall_at_k(results[q], gt[q], kK);
    }
    engine_recall /= double(results.size());
    const auto cs = engine.compression_stats();
    std::printf("  engine (quantized, %zu workers): recall %.3f, %.2fx "
                "compression, %zu cached rows\n",
                cfg.n_workers, engine_recall, cs.compression_ratio(),
                cs.quant_cached_rows);
    if (opt.mpi_check) {
      const auto rep = engine.check_report();
      engine_check_clean = rep.clean();
      std::printf("  mpi-check [quant-engine]: %s\n",
                  check::to_string(rep).c_str());
    }
  }

  // --- gates on the default-fraction configuration.
  const auto gated = *std::find_if(sq.begin(), sq.end(), [&](const TierResult& r) {
    return r.fraction == kDefaultFraction;
  });
  const double reduction = double(float_bytes) / double(gated.resident_bytes);
  const double scan_ratio = gated.scan_qps / base_r.scan_qps;
  const bool recall_ok = gated.recall_search >= 0.9;
  const bool memory_ok = reduction >= 3.0;

  if (std::FILE* f = std::fopen(opt.out.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"quant\",\n");
    std::fprintf(f, "  \"kernel_isa\": \"%s\",\n", simd::kernel_isa().c_str());
    std::fprintf(f, "  \"n\": %zu,\n  \"dim\": %zu,\n  \"queries\": %zu,\n",
                 opt.n, w.base.dim(), opt.n_queries);
    std::fprintf(f, "  \"k\": %zu,\n  \"ef\": %zu,\n", kK, kEf);
    std::fprintf(f,
                 "  \"float_baseline\": {\"search_qps\": %.1f, "
                 "\"scan_qps\": %.1f, \"recall_at_10\": %.4f, "
                 "\"resident_bytes\": %zu},\n",
                 base_r.search_qps, base_r.scan_qps, base_r.recall_search,
                 base_r.resident_bytes);
    std::fprintf(f, "  \"sq8\": [\n");
    for (std::size_t i = 0; i < sq.size(); ++i) {
      const auto& r = sq[i];
      std::fprintf(f,
                   "    {\"float_cache_fraction\": %.2f, \"search_qps\": %.1f, "
                   "\"scan_qps\": %.1f, \"recall_at_10\": %.4f, "
                   "\"scan_recall_at_10\": %.4f, \"resident_bytes\": %zu, "
                   "\"memory_reduction\": %.3f, \"cached_rows\": %zu}%s\n",
                   r.fraction, r.search_qps, r.scan_qps, r.recall_search,
                   r.recall_scan, r.resident_bytes,
                   double(float_bytes) / double(r.resident_bytes),
                   r.cached_rows, i + 1 < sq.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"engine\": {\"recall_at_10\": %.4f, "
                 "\"mpi_check_clean\": %s},\n",
                 engine_recall, engine_check_clean ? "true" : "false");
    std::fprintf(f,
                 "  \"gates\": {\"fraction\": %.2f, \"recall_at_10\": %.4f, "
                 "\"memory_reduction\": %.3f, \"scan_qps_ratio\": %.3f, "
                 "\"recall_ok\": %s, \"memory_ok\": %s}\n",
                 kDefaultFraction, gated.recall_search, reduction, scan_ratio,
                 recall_ok ? "true" : "false", memory_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", opt.out.c_str());
  } else {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out.c_str());
    return 2;
  }

  int rc = 0;
  if (!recall_ok) {
    std::fprintf(stderr,
                 "FAIL: post-re-rank recall@10 %.4f < 0.9 at fraction %.2f\n",
                 gated.recall_search, kDefaultFraction);
    rc = 1;
  }
  if (!memory_ok) {
    std::fprintf(stderr, "FAIL: memory reduction %.2fx < 3x\n", reduction);
    rc = 1;
  }
  if (!engine_check_clean) {
    std::fprintf(stderr, "FAIL: quantized engine run left a dirty mpi-check "
                         "report\n");
    rc = 1;
  }
  std::printf("  scan QPS ratio sq8/float at fraction %.2f: %.2fx\n",
              kDefaultFraction, scan_ratio);
  return rc;
}
