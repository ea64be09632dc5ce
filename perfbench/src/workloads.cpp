#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <deque>
#include <future>
#include <numeric>
#include <random>
#include <thread>

#include "annsim/data/recipes.hpp"
#include "bench.hpp"
#include "open_loop.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = annsim::core;
namespace data = annsim::data;
namespace serve = annsim::serve;
using annsim::GlobalId;

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

Env::~Env() {
  engine.reset();
  if (!scratch_dir.empty()) remove_tree(scratch_dir);
}

Corpus make_corpus(std::uint64_t seed) {
  data::Workload w = data::make_sift_like(kBaseRows + kHeldOutRows,
                                          kQueryPool, kCorpusSeed);
  std::vector<std::size_t> held(kHeldOutRows), picks(kQueryPool);
  std::iota(held.begin(), held.end(), kBaseRows);
  std::iota(picks.begin(), picks.end(), std::size_t{0});
  std::shuffle(held.begin(), held.end(), std::mt19937_64(kCorpusSeed));
  std::shuffle(picks.begin(), picks.end(), std::mt19937_64(seed));
  picks.resize(kQueries);
  Corpus c;
  c.base = w.base.slice(0, kBaseRows);
  c.held_out = w.base.subset(held);
  c.queries = w.queries.subset(picks);
  c.truth = data::brute_force_knn(c.base, c.queries, kK,
                                  annsim::simd::Metric::kL2);
  return c;
}

namespace {

/// Engine of the batch and serve workloads (float HNSW partitions, r=1).
core::EngineConfig read_engine_config() {
  core::EngineConfig cfg;
  cfg.n_workers = 8;
  cfg.replication = 1;
  cfg.n_probe = 4;
  cfg.one_sided = true;
  cfg.local_index = core::LocalIndexKind::kHnsw;
  cfg.hnsw.M = 16;
  cfg.hnsw.ef_construction = 200;
  cfg.hnsw.ef_search = kEf;
  return cfg;
}

/// Engine of the mixed workload (SQ8 segmented partitions, r=2).
core::EngineConfig mixed_engine_config() {
  core::EngineConfig cfg = read_engine_config();
  cfg.local_index = core::LocalIndexKind::kSegmented;
  cfg.quantize_frozen = true;
  cfg.float_cache_fraction = 0.02;
  cfg.replication = 2;
  cfg.segment_delta_capacity = 256;
  return cfg;
}

/// Build the engine kSetupRepeats times (plus WAL attach when `wal_dir` is
/// set) and keep the last; set-up time is the median.
std::unique_ptr<core::DistributedAnnEngine> setup_engine(
    const Corpus& c, const core::EngineConfig& cfg, const std::string& wal_dir,
    double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<core::DistributedAnnEngine> engine;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    if (!wal_dir.empty()) remove_tree(wal_dir);
    const auto t0 = Clock::now();
    {
      Span span("engine.setup");
      engine = std::make_unique<core::DistributedAnnEngine>(&c.base, cfg);
      {
        Span build("engine.build");
        engine->build();
      }
      if (!wal_dir.empty()) {
        Span attach("recovery.wal_attach");
        engine->enable_wal(wal_dir, /*group_commit=*/true);
      }
    }
    times.push_back(seconds_between(t0, Clock::now()));
  }
  *setup_s = median(times);
  return engine;
}

std::vector<float> query_vec(const data::Dataset& q, std::size_t i) {
  const float* r = q.row(i);
  return {r, r + q.dim()};
}

// ---- open-loop reads through the query server ---------------------------

struct ReadPhase {
  std::vector<double> latency_ms;  ///< OK requests, from due time, arrival order
  std::vector<double> late_ms;     ///< every request
  std::vector<double> queue_ms;
  std::vector<double> batch_sizes;
  std::size_t sent = 0;
  std::size_t errors = 0;
  double recall_sum = 0.0;
  double cpu_ms = 0.0;

  [[nodiscard]] std::size_t ok() const { return latency_ms.size(); }
};

/// `n` open-loop reads at `rate`. With `record_spans` (and tracing on),
/// each answered request leaves its spans under request id i + 1.
ReadPhase run_reads(serve::QueryServer& server, const Corpus& c, double rate,
                    std::size_t n, std::uint64_t seed, bool record_spans) {
  const std::vector<double> offsets = poisson_schedule(n, rate, seed);
  std::mt19937_64 pick(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<std::size_t> qdist(0, c.queries.size() - 1);
  std::vector<std::size_t> qidx(n);
  for (auto& q : qidx) q = qdist(pick);

  std::vector<std::future<serve::QueryResponse>> futs(n);
  std::vector<Clock::time_point> due(n), sent(n);
  ReadPhase out;
  out.sent = n;
  const double cpu0 = process_cpu_ms();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  out.late_ms = run_open_loop(
      offsets, start,
      [&](std::size_t i, Clock::time_point d, Clock::time_point s) {
        due[i] = d;
        sent[i] = s;
        futs[i] = server.submit(query_vec(c.queries, qidx[i]), kK);
      });

  Tracer& tracer = Tracer::instance();
  for (std::size_t i = 0; i < n; ++i) {
    const serve::QueryResponse resp = futs[i].get();
    const double lat = latency_from_due_ms(due[i], sent[i], resp.total_ms);
    const Clock::time_point done = at_offset(sent[i], resp.total_ms);
    if (resp.status != serve::QueryStatus::kOk) {
      ++out.errors;
      continue;
    }
    out.latency_ms.push_back(lat);
    out.queue_ms.push_back(resp.queue_ms);
    out.batch_sizes.push_back(double(resp.batch_size));
    out.recall_sum +=
        data::recall_at_k(resp.neighbors, c.truth[qidx[i]], kK);
    if (record_spans && tracer.enabled()) {
      // The request's spans, timed from the benchmark's side of submit():
      // generator lateness, server queue wait, then the engine batch.
      const std::uint64_t req = i + 1;
      const std::uint32_t root = tracer.next_id();
      const std::uint64_t d = tracer.to_ns(due[i]);
      const std::uint64_t s = tracer.to_ns(sent[i]);
      const std::uint64_t q = tracer.to_ns(at_offset(sent[i], resp.queue_ms));
      const std::uint64_t e = tracer.to_ns(done);
      tracer.record(tracer.next_id(), "serve.generator_late", d, s, root, req);
      tracer.record(tracer.next_id(), "serve.queue_wait", s, q, root, req);
      tracer.record(tracer.next_id(), "engine.serve_batch", q, e, root, req);
      tracer.record(root, "serve.request", d, e, 0, req);
    }
  }
  out.cpu_ms = process_cpu_ms() - cpu0;
  return out;
}

/// Capacity of the server: a closed loop from one thread that keeps
/// kCapacityInFlight requests outstanding (two full micro-batches) for
/// `seconds`, so the backlog is bounded by construction. Returns the median
/// over 0.25 s windows of answered requests per second; errors count as
/// failed.
double closed_loop_capacity(serve::QueryServer& server, const Corpus& c,
                            double seconds, std::uint64_t seed, E2E& e) {
  std::mt19937_64 pick(seed);
  std::uniform_int_distribution<std::size_t> qdist(0, c.queries.size() - 1);
  std::deque<std::pair<Clock::time_point, std::future<serve::QueryResponse>>>
      in_flight;
  auto submit = [&] {
    in_flight.emplace_back(Clock::now(),
                           server.submit(query_vec(c.queries, qdist(pick)), kK));
  };
  const auto start = Clock::now();
  const auto stop = at_offset(start, 1e3 * seconds);
  for (std::size_t i = 0; i < kCapacityInFlight; ++i) submit();
  constexpr double kWindowS = 0.25;
  std::vector<double> per_window(std::size_t(std::ceil(seconds / kWindowS)), 0.0);
  std::vector<double> latency_ms;
  while (!in_flight.empty()) {
    const serve::QueryResponse resp = in_flight.front().second.get();
    const auto now = Clock::now();
    latency_ms.push_back(ms_between(in_flight.front().first, now));
    in_flight.pop_front();
    ++e.attempted;
    if (resp.status != serve::QueryStatus::kOk) ++e.failed;
    const auto w = std::size_t(seconds_between(start, now) / kWindowS);
    if (resp.status == serve::QueryStatus::kOk && w < per_window.size()) {
      per_window[w] += 1.0 / kWindowS;
    }
    if (now < stop) submit();
  }
  std::fprintf(stderr, "  capacity: %zu requests, p99 %.2f ms at %zu in flight\n",
               latency_ms.size(),
               tail_percentile(latency_ms, 0.99).value_or(-1.0),
               kCapacityInFlight);
  return median(per_window);
}

// ---- closed-loop batched search ----------------------------------------

struct BatchPhase {
  std::vector<double> batch_ms;
  std::vector<double> cycle_ms;  ///< batch start -> after its recall check
  std::vector<double> query_ms;  ///< batch start -> the query's completion
  std::size_t queries = 0;
  double cpu_ms = 0.0;
  double recall_sum = 0.0;  ///< summed per-batch mean recall
  double recall_min = 1.0;
  std::size_t degraded = 0;
};

/// Closed loop of 1000-query searches for `seconds` (at least
/// `min_batches`, at most `max_batches`), appended to `out`.
void run_batches(core::DistributedAnnEngine& engine,
                 const data::KnnResults& truth, const Corpus& c,
                 double seconds, std::size_t min_batches,
                 std::size_t max_batches, BatchPhase& out) {
  const std::size_t first = out.batch_ms.size();
  std::vector<Clock::time_point> done(c.queries.size());
  std::size_t degraded = 0;
  const core::QueryDoneFn hook = [&](std::size_t qid,
                                     const std::vector<annsim::Neighbor>&,
                                     const core::QueryCoverage& cov) {
    done[qid] = Clock::now();
    if (cov.degraded()) ++degraded;
  };
  const double cpu0 = process_cpu_ms();
  const auto start = Clock::now();
  while (out.batch_ms.size() - first < max_batches &&
         (out.batch_ms.size() - first < min_batches ||
          seconds_between(start, Clock::now()) < seconds)) {
    const auto t0 = Clock::now();
    data::KnnResults res;
    {
      Span span("engine.search", out.batch_ms.size() + 1);
      res = engine.search(c.queries, kK, kEf, nullptr, hook);
    }
    const auto t1 = Clock::now();
    out.batch_ms.push_back(ms_between(t0, t1));
    for (const auto& d : done) out.query_ms.push_back(ms_between(t0, d));
    const double r = data::mean_recall(res, truth, kK);
    out.recall_sum += r;
    out.recall_min = std::min(out.recall_min, r);
    out.queries += c.queries.size();
    out.cycle_ms.push_back(ms_between(t0, Clock::now()));
  }
  out.cpu_ms += process_cpu_ms() - cpu0;
  out.degraded += degraded;
}

BatchPhase run_batches(core::DistributedAnnEngine& engine,
                       const data::KnnResults& truth, const Corpus& c,
                       std::size_t batches) {
  BatchPhase out;
  run_batches(engine, truth, c, 0.0, batches, batches, out);
  return out;
}

// ---- writes ----------------------------------------------------------------

struct WritePhase {
  std::vector<double> latency_ms;  ///< per write round, from its due time
  std::vector<double> compact_ms;
  std::size_t rounds = 0;
  std::size_t failed = 0;
  std::vector<GlobalId> inserted;         ///< acked insert ids
  std::vector<std::size_t> inserted_rows;  ///< their held-out row index
  std::vector<GlobalId> removed;          ///< acked delete ids
  double fill_peak = 0.0;
};

/// One open-loop writer: round i is due at `start` + offsets_ms[i] and is
/// timed from then. Each round inserts kRowsPerWrite held-out rows, every
/// kRemoveEvery-th round also removes kRowsPerWrite base ids, and the
/// writer compacts whenever the fullest delta reaches kCompactAtFill.
/// Held-out rows are reused cyclically if the rounds outnumber them. The
/// rows and ids written do not depend on the run's seed, so every run
/// leaves the engine with the same segments (see Corpus).
WritePhase run_writes(core::DistributedAnnEngine& engine, const Corpus& c,
                      const std::vector<double>& offsets_ms,
                      Clock::time_point start) {
  std::vector<GlobalId> removal(c.base.size());
  for (std::size_t i = 0; i < removal.size(); ++i) removal[i] = c.base.id(i);
  std::shuffle(removal.begin(), removal.end(),
               std::mt19937_64(kCorpusSeed + 1));

  WritePhase out;
  const std::size_t row_slots = c.held_out.size() / kRowsPerWrite;
  for (std::size_t round = 0; round < offsets_ms.size(); ++round) {
    const Clock::time_point due = at_offset(start, offsets_ms[round]);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const std::size_t row0 = (round % row_slots) * kRowsPerWrite;
    const data::Dataset rows = c.held_out.slice(row0, row0 + kRowsPerWrite);
    bool ok = true;
    {
      Span span("engine.insert", (std::uint64_t(1) << 40) + round + 1);
      const core::WriteStats ws = engine.insert(rows);
      for (std::size_t r = 0; r < ws.assigned_ids.size(); ++r) {
        if (ws.row_acked[r]) {
          out.inserted.push_back(ws.assigned_ids[r]);
          out.inserted_rows.push_back(row0 + r);
        }
      }
      ok = ok && ws.all_acked && ws.dropped_rows == 0;
      out.fill_peak = std::max(out.fill_peak, double(ws.max_delta_fill));
    }
    if (round % kRemoveEvery == kRemoveEvery - 1) {
      const std::size_t r0 =
          (round / kRemoveEvery * kRowsPerWrite) % (removal.size() - kRowsPerWrite);
      const std::vector<GlobalId> ids(
          removal.begin() + std::ptrdiff_t(r0),
          removal.begin() + std::ptrdiff_t(r0 + kRowsPerWrite));
      Span span("engine.remove", (std::uint64_t(1) << 40) + round + 1);
      const core::WriteStats ws = engine.remove(ids);
      if (ws.all_acked) {
        out.removed.insert(out.removed.end(), ids.begin(), ids.end());
      }
      ok = ok && ws.all_acked;
    }
    out.latency_ms.push_back(ms_between(due, Clock::now()));
    ++out.rounds;
    if (!ok) ++out.failed;
    if (engine.max_delta_fill() >= kCompactAtFill) {
      const auto t0 = Clock::now();
      {
        Span span("engine.compact");
        engine.compact();
      }
      out.compact_ms.push_back(ms_between(t0, Clock::now()));
    }
  }
  return out;
}

/// Check the write plane's promises after the writer stopped, then measure
/// recall against brute force over the live set (base - removed + inserted).
void verify_writes(core::DistributedAnnEngine& engine, const Corpus& c,
                   const WritePhase& w, E2E& e, data::KnnResults* live_truth) {
  std::size_t lost = 0, resurrected = 0;
  for (GlobalId id : w.inserted) lost += engine.contains(id) ? 0 : 1;
  for (GlobalId id : w.removed) resurrected += engine.contains(id) ? 1 : 0;
  if (lost != 0) e.fail(std::to_string(lost) + " acked inserts lost");
  if (resurrected != 0) {
    e.fail(std::to_string(resurrected) + " acked deletes resurrected");
  }
  std::vector<char> gone(c.base.size(), 0);
  for (GlobalId id : w.removed) gone[std::size_t(id)] = 1;
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < c.base.size(); ++i) {
    if (!gone[i]) keep.push_back(i);
  }
  data::Dataset live = c.base.subset(keep);
  data::Dataset added = c.held_out.subset(w.inserted_rows);
  for (std::size_t i = 0; i < w.inserted.size(); ++i) {
    added.set_id(i, w.inserted[i]);
  }
  live.append(added);
  *live_truth = data::brute_force_knn(live, c.queries, kK,
                                      annsim::simd::Metric::kL2);
}

/// Recall of a batch phase: the mean over its batches, and the floor check
/// on the worst batch.
void batch_recall(const BatchPhase& b, E2E& e) {
  e.recall_at_10 = b.recall_sum / double(b.batch_ms.size());
  e.attempted += b.queries;
  e.failed += b.degraded;
  if (b.recall_min < kRecallFloor) {
    e.fail("batch recall@10 " + std::to_string(b.recall_min) + " < floor " +
           std::to_string(kRecallFloor));
  }
}

/// Median and p99 of `v`, each over its number of consecutive slices (see
/// windowed_percentile). The workloads size their phases by count so that
/// every slice has the samples its p99 needs.
void require_tail(const std::vector<double>& v, std::size_t p50_windows,
                  std::size_t p99_windows, const char* what, double* p50,
                  double* p99) {
  const auto t = windowed_percentile(v, p99_windows, 0.99);
  const auto m = windowed_percentile(v, p50_windows, 0.5, 0);
  if (!t || !m) {
    throw std::logic_error(std::string(what) +
                           ": too few samples for a p99 in each of " +
                           std::to_string(p99_windows) + " windows (" +
                           std::to_string(v.size()) + ")");
  }
  *p50 = *m;
  *p99 = *t;
}

/// Median wall time of one batch: the smallest median over kBatchWindows
/// windows of consecutive batches.
double batch_p50(const BatchPhase& b) {
  return *windowed_percentile(b.batch_ms, kBatchWindows, 0.5, 0);
}

/// Completed queries per wall second: the largest over kBatchWindows
/// windows of consecutive batches of the window's queries over its wall
/// time (the batches run back to back, with the recall check between).
double batch_qps(const BatchPhase& b, std::size_t queries_per_batch) {
  const std::size_t per = b.cycle_ms.size() / kBatchWindows;
  double best = 0.0;
  for (std::size_t w = 0; w < kBatchWindows; ++w) {
    double ms = 0.0;
    for (std::size_t i = w * per; i < (w + 1) * per; ++i) ms += b.cycle_ms[i];
    best = std::max(best, 1e3 * double(per * queries_per_batch) / ms);
  }
  return best;
}

/// Throughput of the serving workloads: answered reads per second of
/// process CPU over the phase. Their reads arrive at a fixed rate, so reads
/// per wall second would only echo that rate; the CPU the program spends
/// per read (engine, server and, in mixed, the writer) is its own.
double reads_per_cpu_s(std::size_t ok, double cpu_ms) {
  return 1e3 * double(ok) / cpu_ms;
}

}  // namespace

void serve_pass(const Options& opt, Env& env, double seconds, E2E& into) {
  serve::QueryServer server(env.engine.get(), serve::ServerConfig{});
  const ReadPhase r =
      run_reads(server, *env.corpus, kReferenceQps,
                std::size_t(kReferenceQps * seconds), opt.seed + 5, true);
  into.queue_ms = r.queue_ms;
  into.batch_sizes = r.batch_sizes;
  into.generator_late_ms = r.late_ms;
}

E2E run_batch(const Options& opt, Env& env) {
  const Corpus& c = *env.corpus;
  E2E e;
  env.engine = setup_engine(c, read_engine_config(), "", &e.setup_s);
  run_batches(*env.engine, c.truth, c, 3);  // warm-up
  BatchPhase b;
  run_batches(*env.engine, c.truth, c, opt.seconds, 20, 100000, b);
  e.batch_p50_ms = batch_p50(b);
  batch_recall(b, e);
  e.qps = batch_qps(b, c.queries.size());
  // Offline batches carry no latency limit: the highest rate a batch
  // client sustains is its closed-loop throughput.
  e.max_rate_qps = e.qps;
  require_tail(b.query_ms, kTailWindows, kTailWindows, "batch query latency",
               &e.read_p50_ms, &e.read_p99_ms);
  e.cpu_ms_per_query = b.cpu_ms / double(b.queries);
  e.peak_rss_mb = peak_rss_mb();
  return e;
}

E2E run_serve(const Options& opt, Env& env) {
  const Corpus& c = *env.corpus;
  E2E e;
  env.engine = setup_engine(c, read_engine_config(), "", &e.setup_s);
  run_batches(*env.engine, c.truth, c, 3);  // warm-up
  // Batch times come from three groups spread over the run: before and
  // after the reference phase, and after the capacity test.
  BatchPhase b = run_batches(*env.engine, c.truth, c, kServeBatchGroup);
  {
    serve::QueryServer server(env.engine.get(), serve::ServerConfig{});
    const std::size_t n = std::max(
        kMinReferenceReads, std::size_t(kReferenceQps * opt.seconds * 0.75));
    const ReadPhase r = run_reads(server, c, kReferenceQps, n, opt.seed, true);
    e.attempted += r.sent;
    e.failed += r.errors;
    if (r.errors != 0) {
      e.fail(std::to_string(r.errors) + " errors at the reference rate");
    }
    e.qps = reads_per_cpu_s(r.ok(), r.cpu_ms);
    require_tail(r.latency_ms, kTailWindows, kTailWindows,
                 "reference-rate reads", &e.read_p50_ms, &e.read_p99_ms);
    e.recall_at_10 = r.ok() == 0 ? 0.0 : r.recall_sum / double(r.ok());
    if (e.recall_at_10 < kRecallFloor) {
      e.fail("serve recall@10 " + std::to_string(e.recall_at_10) + " < floor");
    }
    e.cpu_ms_per_query = r.cpu_ms / double(std::max<std::size_t>(1, r.ok()));
    e.queue_ms = r.queue_ms;
    e.batch_sizes = r.batch_sizes;
    e.generator_late_ms = r.late_ms;
    run_batches(*env.engine, c.truth, c, 0.0, kServeBatchGroup,
                kServeBatchGroup, b);
    e.max_rate_qps =
        closed_loop_capacity(server, c, opt.seconds * 0.25, opt.seed, e);
  }
  run_batches(*env.engine, c.truth, c, 0.0, kServeBatchGroup, kServeBatchGroup,
              b);
  e.batch_p50_ms = *windowed_percentile(b.batch_ms, 3, 0.5, 0);
  e.peak_rss_mb = peak_rss_mb();
  return e;
}

E2E run_mixed(const Options& opt, Env& env) {
  const Corpus& c = *env.corpus;
  E2E e;
  const std::string wal = env.scratch_dir + "/wal";
  env.engine = setup_engine(c, mixed_engine_config(), wal, &e.setup_s);
  run_batches(*env.engine, c.truth, c, 3);  // warm-up
  {
    serve::QueryServer server(env.engine.get(), serve::ServerConfig{});
    e.max_rate_qps =
        closed_loop_capacity(server, c, opt.seconds * 0.25, opt.seed, e);
  }
  WritePhase w;
  {
    serve::QueryServer server(env.engine.get(), serve::ServerConfig{});
    const double write_rate = kMixedReadQps * kWriteShare / (1 - kWriteShare);
    const std::size_t n_writes = std::max(
        kMinWriteRounds, std::size_t(std::ceil(write_rate * opt.seconds)));
    const std::size_t n_reads = std::size_t(
        std::llround(double(n_writes) * (1 - kWriteShare) / kWriteShare));
    const std::vector<double> write_offsets =
        poisson_schedule(n_writes, write_rate, opt.seed + 77);
    const double cpu0 = process_cpu_ms();
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    std::exception_ptr writer_error;
    std::thread writer([&] {
      try {
        w = run_writes(*env.engine, c, write_offsets, start);
      } catch (...) {
        writer_error = std::current_exception();
      }
    });
    ReadPhase r;
    try {
      r = run_reads(server, c, kMixedReadQps, n_reads, opt.seed, true);
    } catch (...) {
      writer.join();
      throw;
    }
    writer.join();
    if (writer_error) std::rethrow_exception(writer_error);
    // CPU of the whole phase: reads, and the writer's fan-out, WAL and
    // compactions.
    const double cpu_ms = process_cpu_ms() - cpu0;
    e.attempted += r.sent + w.rounds;
    e.failed += r.errors + w.failed;
    if (r.errors + w.failed != 0) {
      e.fail(std::to_string(r.errors) + " read errors, " +
             std::to_string(w.failed) + " unacked write rounds");
    }
    e.qps = reads_per_cpu_s(r.ok(), cpu_ms);
    // The p99s take the whole run: the reads and writes that wait behind a
    // compaction are its tail, and shorter windows would differ by whether
    // they caught one.
    require_tail(r.latency_ms, kTailWindows, 1, "mixed reads", &e.read_p50_ms,
                 &e.read_p99_ms);
    require_tail(w.latency_ms, kTailWindows, 1, "mixed writes",
                 &e.write_p50_ms, &e.write_p99_ms);
    e.cpu_ms_per_query = cpu_ms / double(std::max<std::size_t>(1, r.ok()));
    e.queue_ms = r.queue_ms;
    e.batch_sizes = r.batch_sizes;
    e.generator_late_ms = r.late_ms;
    double compact_total = 0.0;
    for (double ms : w.compact_ms) compact_total += ms;
    std::fprintf(stderr,
                 "[mixed] %zu write rounds, %zu compactions taking %.0f ms, "
                 "delta fill peak %.0f\n",
                 w.rounds, w.compact_ms.size(), compact_total, w.fill_peak);
  }
  // Batched search on the engine the writes left behind (frozen SQ8
  // segments plus deltas), checked against the live set.
  data::KnnResults live_truth;
  verify_writes(*env.engine, c, w, e, &live_truth);
  const BatchPhase b = run_batches(*env.engine, live_truth, c, kMixedBatches);
  e.batch_p50_ms = batch_p50(b);
  batch_recall(b, e);
  e.peak_rss_mb = peak_rss_mb();
  return e;
}

}  // namespace perfbench
