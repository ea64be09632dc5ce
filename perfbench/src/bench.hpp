#pragma once
/// \file bench.hpp
/// \brief Workloads of the repository benchmark and the per-layer probe.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/serve/query_server.hpp"
#include "util.hpp"

namespace perfbench {

inline constexpr std::size_t kBaseRows = 20000;
inline constexpr std::size_t kHeldOutRows = 12000;
inline constexpr std::size_t kQueries = 1000;
/// The corpus, the query pool and the mixed workload's writes (held-out row
/// order, removal order) are fixed; the seed draws the queries and the
/// arrival times. With seeded writes, runs ended with 9 or 10 compactions
/// and different segment layouts, and the batch time after the writes
/// differed by up to 15% with them.
inline constexpr std::size_t kQueryPool = 5000;
inline constexpr std::uint64_t kCorpusSeed = 20200901;
inline constexpr std::size_t kK = 10;
inline constexpr std::size_t kEf = 64;
inline constexpr std::size_t kSetupRepeats = 3;
/// Latency percentiles of the batch and serve workloads are taken per
/// window of consecutive requests (see windowed_percentile); so are batch
/// times.
inline constexpr std::size_t kTailWindows = 20;
inline constexpr std::size_t kBatchWindows = 5;
/// Batches in each of the serve workload's three batch groups.
inline constexpr std::size_t kServeBatchGroup = 10;

/// Recall@10 below this floor marks a run incorrect (today's engines reach
/// 0.93-0.97 depending on the seed; the bound on recall_at_10 catches
/// smaller losses).
inline constexpr double kRecallFloor = 0.90;

/// Serving: the fixed reference rate, and the requests the capacity test
/// keeps in flight (two full micro-batches of the default server).
inline constexpr double kReferenceQps = 2000.0;
inline constexpr std::size_t kCapacityInFlight = 64;

/// Reads of the serve workload's reference phase: three quarters of the
/// run, and at least enough for a p99 in each of kTailWindows windows.
inline constexpr std::size_t kMinReferenceReads = kTailWindows * 1000;

/// Mixed: read rate, and write rounds as a share of all operations. A run
/// makes at least kMinWriteRounds write rounds (1000 at 50/s fill 20 s: a
/// p99 with ten samples beyond it) and nine reads per round, so it can
/// last longer than --seconds asks. 2 rows per round keep the writer's
/// foreground compaction at about a tenth of the run, so the median read or
/// write is not one that waited behind a compaction even when the host is
/// slow.
inline constexpr double kMixedReadQps = 450.0;
inline constexpr double kWriteShare = 0.10;
inline constexpr std::size_t kMinWriteRounds = 1000;
inline constexpr std::size_t kRowsPerWrite = 2;
inline constexpr std::size_t kRemoveEvery = 4;
inline constexpr std::size_t kCompactAtFill = 32;
/// Batches of the mixed workload timed after its writes.
inline constexpr std::size_t kMixedBatches = 30;

/// A metric the benchmark reports: name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (--trace 0) and every per-layer metric
/// (--trace 1), in the order BENCHMARK.json lists them. The read and write
/// latencies and the serving capacity head the per-layer list: they are
/// measured in every run, but on a shared host they do not repeat closely
/// enough across runs to be gated (see README.md).
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Throws unless `r` holds exactly the metrics of `specs`, with their units.
void require_metrics(const Result& r, const std::vector<MetricSpec>& specs);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Inputs of one run: base corpus, rows held out for inserts (in a fixed
/// order), seeded queries from the pool, and brute-force ground truth of
/// the queries over the base.
struct Corpus {
  annsim::data::Dataset base;
  annsim::data::Dataset held_out;
  annsim::data::Dataset queries;
  annsim::data::KnnResults truth;
};

Corpus make_corpus(std::uint64_t seed);

/// Everything one workload run measured, end to end.
struct E2E {
  double setup_s = 0.0;
  double qps = 0.0;
  double batch_p50_ms = 0.0;
  double read_p50_ms = 0.0;
  double read_p99_ms = 0.0;
  double max_rate_qps = 0.0;
  double write_p50_ms = 0.0;
  double write_p99_ms = 0.0;
  double recall_at_10 = 0.0;
  double peak_rss_mb = 0.0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;  ///< why `correct` is false

  /// Process CPU of the measured phase per completed read query (ms).
  double cpu_ms_per_query = 0.0;

  // Serving-layer observations (from responses of the read phase).
  std::vector<double> queue_ms;
  std::vector<double> batch_sizes;
  std::vector<double> generator_late_ms;

  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

/// State a workload leaves behind for the per-layer probe. Owns the run's
/// scratch directory: the destructor closes the engine (and its WALs) and
/// removes the directory.
struct Env {
  Env() = default;
  ~Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  const Corpus* corpus = nullptr;
  std::unique_ptr<annsim::core::DistributedAnnEngine> engine;
  std::string scratch_dir;  ///< per-run directory for WALs and temp files
};

E2E run_batch(const Options& opt, Env& env);
E2E run_serve(const Options& opt, Env& env);
E2E run_mixed(const Options& opt, Env& env);

/// Reads at the reference rate through a query server on env's engine,
/// filling only the serving-layer observations of `into`. The batch
/// workload makes no reads through the server, but a traced run reports
/// every per-layer metric, serve.* too.
void serve_pass(const Options& opt, Env& env, double seconds, E2E& into);

/// Per-layer metrics of the traced run, measured by timing the benchmark's
/// own calls into each module on the workload's corpus and engine. The
/// latency and capacity figures come from `plain`, the untraced pass.
void run_layer_probe(const Options& opt, Env& env, const E2E& plain,
                     const E2E& traced, Result& out);

/// Remove a directory tree the benchmark created (ignores errors).
void remove_tree(const std::string& path);

}  // namespace perfbench
