// Per-layer probe of the traced run. Every number comes from timing the
// benchmark's own calls into one module's public functions, on the
// workload's corpus and (for engine.* and serve.*) on the workload's engine.
// Each timed call sits inside a span named "<layer>.<op>"; per-call costs
// are span totals divided by the work the spans covered.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>

#include "annsim/common/aligned_buffer.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/quant/sq_codec.hpp"
#include "annsim/quant/sq_segment.hpp"
#include "annsim/recovery/write_log.hpp"
#include "annsim/segment/segmented_index.hpp"
#include "annsim/simd/distance.hpp"
#include "annsim/vptree/partition_vp_tree.hpp"
#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = annsim::core;
namespace data = annsim::data;
namespace simd = annsim::simd;
using annsim::PartitionId;

namespace {

/// Time `fn` inside a span named `name`; returns the span's duration in ns.
template <class Fn>
double timed(const char* name, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    Span span(name);
    fn();
  }
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double us(double ns) { return ns / 1e3; }

/// Partitions of the base corpus, rebuilt from PartitionVpTree::build's
/// assignment with the engine's parameters.
struct Partitions {
  std::unique_ptr<annsim::vptree::PartitionVpTree> tree;
  std::vector<std::unique_ptr<data::Dataset>> rows;
  std::vector<std::vector<PartitionId>> plans;  ///< routed jobs per query
};

void probe_simd(const Corpus& c, const data::Dataset& part,
                const annsim::hnsw::HnswIndex& index, Result& out) {
  const data::Dataset& base = c.base;
  const std::size_t dim = base.dim();
  std::vector<float> dist(base.size());
  constexpr std::size_t kScanQueries = 50;

  // Float kernel over contiguous rows (a brute-force scan).
  const double scan_ns = timed("simd.l2_contiguous", [&] {
    for (std::size_t q = 0; q < kScanQueries; ++q) {
      simd::l2_sq_batch(c.queries.row(q), base.row(0), base.stride(), dim,
                        nullptr, base.size(), dist.data());
    }
  });
  out.add("simd.l2_ns_per_dist", scan_ns / double(kScanQueries * base.size()),
          "ns");

  // Float kernel over rows in graph order: the neighbor lists of a
  // breadth-first walk of one partition's layer-0 graph, one batch call per
  // node, as HNSW beam expansion issues them.
  const annsim::hnsw::FlatGraph& g = index.flat_graph();
  std::vector<std::vector<std::uint32_t>> lists;
  std::vector<char> seen(g.size(), 0);
  std::vector<annsim::LocalId> frontier{g.entry_point()};
  seen[g.entry_point()] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto nb = g.neighbors0(frontier[head]);
    lists.emplace_back(nb.begin(), nb.end());
    for (annsim::LocalId v : nb) {
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push_back(v);
      }
    }
  }
  std::size_t scattered = 0;
  constexpr std::size_t kGraphQueries = 20;
  const double graph_ns = timed("simd.l2_scattered", [&] {
    for (std::size_t q = 0; q < kGraphQueries; ++q) {
      for (const auto& ids : lists) {
        simd::l2_sq_batch(c.queries.row(q), part.row(0), part.stride(), dim,
                          ids.data(), ids.size(), dist.data());
        scattered += ids.size();
      }
    }
  });
  out.add("simd.l2_ns_per_dist_scattered", graph_ns / double(scattered), "ns");

  // SQ8 kernel over contiguous code rows.
  const annsim::quant::SqCodec codec = annsim::quant::SqCodec::train(base);
  const std::size_t stride = codec.code_stride();
  annsim::AlignedBuffer<std::uint8_t> codes;
  codes.reset(base.size() * stride);
  std::memset(codes.data(), 0, base.size() * stride);
  for (std::size_t i = 0; i < base.size(); ++i) {
    codec.encode(base.row_span(i), codes.data() + i * stride);
  }
  const double u8_ns = timed("simd.l2_u8_contiguous", [&] {
    for (std::size_t q = 0; q < kScanQueries; ++q) {
      simd::l2_sq_batch_u8(c.queries.row(q), codes.data(), stride, dim,
                           codec.mins(), codec.scales(), nullptr, base.size(),
                           dist.data());
    }
  });
  out.add("simd.l2_u8_ns_per_dist", u8_ns / double(kScanQueries * base.size()),
          "ns");
}

Partitions probe_vptree(const Corpus& c, const core::DistributedAnnEngine& engine,
                        std::size_t n_probe, Result& out) {
  Partitions p;
  const auto t0 = Clock::now();
  std::optional<annsim::vptree::PartitionBuildResult> result;
  {
    Span span("vptree.build");
    result.emplace(annsim::vptree::PartitionVpTree::build(
        c.base, engine.router().params()));
  }
  out.add("vptree.build_s", seconds_between(t0, Clock::now()), "s");
  annsim::vptree::PartitionBuildResult& built = *result;
  std::vector<double> sizes(built.partition_sizes.begin(),
                            built.partition_sizes.end());
  out.add("vptree.partition_size_cv", coeff_of_variation(sizes), "ratio");

  std::vector<std::vector<std::size_t>> members(built.tree.n_partitions());
  for (std::size_t i = 0; i < built.assignment.size(); ++i) {
    members[built.assignment[i]].push_back(i);
  }
  for (const auto& m : members) {
    p.rows.push_back(std::make_unique<data::Dataset>(c.base.subset(m)));
  }
  p.tree = std::make_unique<annsim::vptree::PartitionVpTree>(std::move(built.tree));

  // Routing on the engine's own router, one span per query.
  std::size_t probed = 0;
  const double route_ns = timed("vptree.route_all", [&] {
    for (std::size_t q = 0; q < c.queries.size(); ++q) {
      Span span("vptree.route_topk", q + 1);
      probed += engine.router().route_topk(c.queries.row(q), n_probe)
                    .partitions.size();
    }
  });
  out.add("vptree.route_us_per_query", us(route_ns) / double(c.queries.size()),
          "us");
  out.add("vptree.partitions_per_query",
          double(probed) / double(c.queries.size()), "count");
  for (std::size_t q = 0; q < c.queries.size(); ++q) {
    p.plans.push_back(p.tree->route_topk(c.queries.row(q), n_probe).partitions);
  }
  return p;
}

std::vector<std::unique_ptr<annsim::hnsw::HnswIndex>> probe_hnsw(
    const Corpus& c, const Partitions& parts,
    const annsim::hnsw::HnswParams& params, Result& out) {
  std::vector<std::unique_ptr<annsim::hnsw::HnswIndex>> index;
  double build_ns = 0.0;
  for (const auto& rows : parts.rows) {
    index.push_back(std::make_unique<annsim::hnsw::HnswIndex>(rows.get(), params));
    build_ns += timed("hnsw.build", [&] { index.back()->build(); });
  }
  out.add("hnsw.build_s_per_partition", build_ns / 1e9 / double(index.size()),
          "s");
  std::size_t jobs = 0;
  const double search_ns = timed("hnsw.replay", [&] {
    for (std::size_t q = 0; q < parts.plans.size(); ++q) {
      for (PartitionId p : parts.plans[q]) {
        Span span("hnsw.search", q + 1);
        auto res = index[p]->search(c.queries.row(q), kK, kEf);
        jobs += res.empty() ? 0 : 1;
      }
    }
  });
  out.add("hnsw.search_us_per_job", us(search_ns) / double(jobs), "us");
  return index;
}

void probe_quant(const Corpus& c, const Partitions& parts,
                 const core::EngineConfig& cfg, Result& out) {
  annsim::quant::SqSegmentParams params;
  params.hnsw = cfg.hnsw;
  params.float_cache_fraction = 0.02;
  std::vector<std::unique_ptr<annsim::quant::SqSegment>> segs;
  std::size_t resident = 0, floats = 0;
  for (const auto& rows : parts.rows) {
    timed("quant.build", [&] {
      segs.push_back(annsim::quant::SqSegment::build(*rows, params));
    });
    resident += segs.back()->memory_bytes();
    floats += segs.back()->float_bytes();
  }
  out.add("quant.compression_ratio", double(floats) / double(resident), "ratio");
  std::size_t jobs = 0;
  const double search_ns = timed("quant.replay", [&] {
    for (std::size_t q = 0; q < parts.plans.size(); ++q) {
      for (PartitionId p : parts.plans[q]) {
        Span span("quant.search", q + 1);
        auto res = segs[p]->search(c.queries.row(q), kK, kEf);
        jobs += res.empty() ? 0 : 1;
      }
    }
  });
  out.add("quant.search_us_per_job", us(search_ns) / double(jobs), "us");
}

/// The mixed workload's write pattern on the module alone: one
/// SegmentedIndex per partition in the mixed configuration, held-out rows
/// routed to their nearest partition in rounds of kRowsPerWrite, and every
/// index compacted whenever the fullest delta reaches kCompactAtFill.
/// Returns each round's wall time in ms, its compaction included.
std::vector<double> probe_segment(const Corpus& c, const Partitions& parts,
                                  const core::EngineConfig& cfg, Result& out) {
  annsim::segment::SegmentedParams params;
  params.hnsw = cfg.hnsw;
  params.delta_capacity = 256;
  params.quantize_frozen = true;
  params.float_cache_fraction = 0.02;
  std::vector<std::unique_ptr<annsim::segment::SegmentedIndex>> segs;
  for (const auto& rows : parts.rows) {
    timed("segment.build", [&] {
      segs.push_back(
          std::make_unique<annsim::segment::SegmentedIndex>(*rows, params));
    });
  }
  // Enough for one major compaction, and for a p99 of the rounds.
  constexpr std::size_t kRounds = 1200;
  double insert_ns = 0.0;
  std::vector<double> compact_ms, round_ms;
  std::size_t fill_peak = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = r * kRowsPerWrite; i < (r + 1) * kRowsPerWrite; ++i) {
      const float* v = c.held_out.row(i);
      const PartitionId p = parts.tree->route_nearest(v);
      insert_ns += timed("segment.insert", [&] {
        segs[p]->insert({v, c.held_out.dim()},
                        annsim::GlobalId(kBaseRows + kHeldOutRows + i));
      });
    }
    std::size_t fill = 0;
    for (const auto& s : segs) fill = std::max(fill, s->delta_fill());
    fill_peak = std::max(fill_peak, fill);
    if (fill >= kCompactAtFill) {
      compact_ms.push_back(timed("segment.compact_all", [&] {
                             for (auto& s : segs) {
                               Span span("segment.compact");
                               s->compact();
                             }
                           }) / 1e6);
    }
    round_ms.push_back(ms_between(t0, Clock::now()));
  }
  out.add("segment.insert_us_per_row",
          us(insert_ns) / double(kRounds * kRowsPerWrite), "us");
  out.add("segment.compact_ms", mean(compact_ms), "ms");
  out.add("segment.delta_fill_peak", double(fill_peak), "rows");
  return round_ms;
}

void probe_recovery(const Corpus& c, const std::string& dir, Result& out) {
  remove_tree(dir);
  std::size_t rows = 0;
  std::vector<double> commit_us;
  {
    annsim::recovery::WriteLog log(dir, annsim::recovery::WalOptions{});
    std::uint64_t lsn = 1;
    constexpr std::size_t kRounds = 200;
    for (std::size_t r = 0; r < kRounds; ++r) {
      commit_us.push_back(us(timed("recovery.wal_commit", [&] {
        for (std::size_t i = 0; i < kRowsPerWrite; ++i, ++rows) {
          log.append_insert(lsn++, PartitionId(i % 8), annsim::GlobalId(rows),
                            c.held_out.row_span(rows));
        }
        if (!log.commit()) throw std::runtime_error("WAL commit failed");
      })));
    }
  }
  std::uintmax_t bytes = 0;
  for (const auto& f : std::filesystem::recursive_directory_iterator(dir)) {
    if (f.is_regular_file()) bytes += f.file_size();
  }
  remove_tree(dir);
  out.add("recovery.wal_commit_us", median(commit_us), "us");
  out.add("recovery.wal_bytes_per_row", double(bytes) / double(rows), "B");
}

void probe_protocol(const Corpus& c, Result& out) {
  core::QueryJob job;
  job.query_id = 7;
  job.partition = 3;
  job.k = kK;
  job.ef = kEf;
  job.query.assign(c.queries.row(0), c.queries.row(0) + c.queries.dim());
  constexpr std::size_t kN = 20000;
  std::size_t bytes = 0;
  std::vector<std::byte> wire;
  const double enc_ns = timed("protocol.encode_jobs", [&] {
    for (std::size_t i = 0; i < kN; ++i) {
      job.query_id = std::uint32_t(i);
      wire = core::encode_query_job(job);
      bytes += wire.size();
    }
  });
  std::uint64_t check = 0;
  const double dec_ns = timed("protocol.decode_jobs", [&] {
    for (std::size_t i = 0; i < kN; ++i) {
      check += core::decode_query_job(wire).query_id;
    }
  });
  if (check != std::uint64_t(kN) * job.query_id) {
    throw std::runtime_error("decode_query_job round trip mismatch");
  }
  out.add("protocol.encode_job_us", us(enc_ns) / double(kN), "us");
  out.add("protocol.decode_job_us", us(dec_ns) / double(kN), "us");
  out.add("protocol.job_bytes", double(bytes) / double(kN), "B");
  const core::SlotLayout layout{kK, 8};
  const std::vector<annsim::Neighbor> nb(kK);
  out.add("protocol.slot_update_bytes",
          double(core::encode_slot_update(nb, layout, 0).size()), "B");
}

struct EngineProbe {
  double jobs_per_query = 0.0;
  double route_us = 0.0;
  double merge_us = 0.0;
  double dispatch_us_per_job = 0.0;
  double batch_overhead_ms = 0.0;
};

EngineProbe probe_engine(const Corpus& c, core::DistributedAnnEngine& engine,
                         Result& out) {
  const std::size_t nq = c.queries.size();
  core::SearchStats st;
  timed("engine.search_stats", [&] {
    (void)engine.search(c.queries, kK, kEf, &st);
  });
  EngineProbe e;
  const double jobs = double(std::max<std::uint64_t>(1, st.total_jobs));
  e.jobs_per_query = jobs / double(nq);
  e.route_us = st.master_route_seconds * 1e6 / double(nq);
  e.merge_us = st.master_merge_seconds * 1e6 / double(nq);
  e.dispatch_us_per_job = st.master_dispatch_seconds * 1e6 / jobs;
  out.add("engine.route_us_per_query", e.route_us, "us");
  out.add("engine.dispatch_us_per_job", e.dispatch_us_per_job, "us");
  out.add("engine.merge_us_per_query", e.merge_us, "us");
  out.add("engine.jobs_per_query", e.jobs_per_query, "count");
  out.add("engine.p2p_bytes_per_job", double(st.traffic.p2p_bytes) / jobs, "B");
  out.add("engine.rma_ops_per_query", double(st.traffic.rma_ops) / double(nq),
          "count");
  std::vector<double> per_worker(st.jobs_per_worker.begin(),
                                 st.jobs_per_worker.end());
  out.add("engine.load_cv", coeff_of_variation(per_worker), "ratio");
  // Wall-clock summed over every worker thread: not additive with anything.
  out.add("engine.worker_compute_s", st.worker_compute_seconds, "s");

  std::vector<double> ms;
  for (std::size_t i = 0; i < 200; ++i) {
    const data::Dataset q = c.queries.slice(i % nq, i % nq + 1);
    ms.push_back(timed("engine.search_one", [&] {
                   (void)engine.search(q, kK, kEf);
                 }) / 1e6);
  }
  e.batch_overhead_ms = median(ms);
  out.add("engine.batch_overhead_ms", e.batch_overhead_ms, "ms");
  return e;
}

double probe_mpi(std::size_t n_ranks, Result& out) {
  std::vector<double> spawn_us;
  for (int i = 0; i < 100; ++i) {
    spawn_us.push_back(us(timed("mpi.runtime_spawn", [&] {
      annsim::mpi::Runtime rt{int(n_ranks)};
      rt.run([](annsim::mpi::Comm& comm) { comm.barrier(); });
    })));
  }
  const double spawn = median(spawn_us);
  out.add("mpi.runtime_spawn_us", spawn, "us");

  constexpr int kTrips = 2000;
  constexpr annsim::mpi::Tag kPing = 41;
  double rtt_ns = 0.0;
  {
    annsim::mpi::Runtime rt(2);
    rt.run([&](annsim::mpi::Comm& comm) {
      const std::vector<std::byte> msg(540);
      if (comm.rank() == 0) {
        rtt_ns = timed("mpi.p2p_roundtrips", [&] {
          for (int i = 0; i < kTrips; ++i) {
            comm.send(1, kPing, msg);
            (void)comm.recv(1, kPing);
          }
        });
      } else {
        for (int i = 0; i < kTrips; ++i) {
          auto m = comm.recv(0, kPing);
          comm.send(0, kPing, m.payload);
        }
      }
    });
  }
  out.add("mpi.p2p_roundtrip_us", us(rtt_ns) / kTrips, "us");

  constexpr int kOps = 5000;
  double acc_ns = 0.0;
  {
    const core::SlotLayout layout{kK, 8};
    annsim::mpi::Runtime rt(2);
    rt.run([&](annsim::mpi::Comm& comm) {
      annsim::mpi::Window win =
          comm.create_window(comm.rank() == 0 ? layout.window_bytes(64) : 0);
      comm.barrier();
      if (comm.rank() == 1) {
        std::vector<annsim::Neighbor> nb(kK);
        for (std::size_t i = 0; i < kK; ++i) {
          nb[i] = annsim::Neighbor{float(i), annsim::GlobalId(i)};
        }
        const auto merge = core::knn_slot_merge(layout);
        win.lock_shared(0);
        acc_ns = timed("mpi.get_accumulates", [&] {
          for (int i = 0; i < kOps; ++i) {
            const auto update = core::encode_slot_update(
                nb, layout, PartitionId(i % 8));
            win.get_accumulate(0, layout.slot_offset(std::size_t(i) % 64),
                               update, merge);
          }
        });
        win.unlock(0);
      }
      comm.barrier();
    });
  }
  out.add("mpi.get_accumulate_us", us(acc_ns) / kOps, "us");
  return spawn;
}

}  // namespace

void run_layer_probe(const Options& opt, Env& env, const E2E& plain,
                     const E2E& traced, Result& out) {
  const Corpus& c = *env.corpus;
  core::DistributedAnnEngine& engine = *env.engine;
  const core::EngineConfig& cfg = engine.config();
  const auto t0 = Clock::now();

  Partitions parts = probe_vptree(c, engine, cfg.n_probe, out);
  auto hnsw_index = probe_hnsw(c, parts, cfg.hnsw, out);
  probe_simd(c, *parts.rows[0], *hnsw_index[0], out);
  hnsw_index.clear();
  probe_quant(c, parts, cfg, out);
  const std::vector<double> segment_rounds = probe_segment(c, parts, cfg, out);
  probe_recovery(c, env.scratch_dir + "/wal_probe", out);
  probe_protocol(c, out);
  const EngineProbe eng = probe_engine(c, engine, out);
  const double spawn_us = probe_mpi(cfg.n_workers + 1, out);

  // Serving layer: the workload's own read phase when it has one.
  E2E serving = traced;
  if (serving.queue_ms.empty()) serve_pass(opt, env, 2.0, serving);
  const auto q99 = tail_percentile(serving.queue_ms, 0.99);
  const auto late99 = tail_percentile(serving.generator_late_ms, 0.99);
  if (!q99 || !late99) throw std::runtime_error("too few serving samples");
  out.add("serve.queue_wait_p50_ms", median(serving.queue_ms), "ms");
  out.add("serve.queue_wait_p99_ms", *q99, "ms");
  out.add("serve.batch_size_mean", mean(serving.batch_sizes), "count");
  out.add("serve.generator_late_p99_ms", *late99, "ms");
  out.add("process.cpu_ms_per_query", traced.cpu_ms_per_query, "ms");

  // Read latency and capacity of the untraced pass. Write latency is the
  // mixed workload's own writer; the other workloads make no writes, and
  // report the write rounds of the segment probe instead (the module's
  // inserts and compactions, without fan-out or WAL).
  out.add("read_p50_ms", plain.read_p50_ms, "ms");
  out.add("read_p99_ms", plain.read_p99_ms, "ms");
  out.add("max_rate_qps", plain.max_rate_qps, "q/s");
  double write_p50 = plain.write_p50_ms, write_p99 = plain.write_p99_ms;
  if (opt.workload != "mixed") {
    write_p50 = median(segment_rounds);
    write_p99 = *tail_percentile(segment_rounds, 0.99);
  }
  out.add("write_p50_ms", write_p50, "ms");
  out.add("write_p99_ms", write_p99, "ms");

  // Layer budget: the per-query sum of the layers' self times against the
  // end-to-end cost of one query.
  const bool sq8 = cfg.quantize_frozen;
  const double search_us = out.value(sq8 ? "quant.search_us_per_job"
                                         : "hnsw.search_us_per_job");
  const double per_job = out.value("protocol.encode_job_us") +
                         out.value("protocol.decode_job_us") + search_us;
  struct Item {
    const char* name;
    double us;
  };
  std::vector<Item> items = {
      {"vptree.route", out.value("vptree.route_us_per_query")},
      {sq8 ? "quant.search+protocol" : "hnsw.search+protocol",
       eng.jobs_per_query * per_job},
      {"engine.dispatch", eng.jobs_per_query * eng.dispatch_us_per_job},
      {"engine.merge", eng.merge_us}};
  double basis = 0.0;
  const char* basis_name = "";
  if (opt.workload == "batch") {
    // Closed loop: every core is busy, so compare serial layer work with
    // the CPU one query costs.
    basis = 1e3 * traced.cpu_ms_per_query;
    basis_name = "cpu_us_per_query";
  } else {
    // Open loop: compare the layers on a read's blocking path with its
    // median latency from due time.
    basis = 1e3 * traced.read_p50_ms;
    basis_name = "read_p50_us";
    items.push_back({"serve.generator_late", 1e3 * median(serving.generator_late_ms)});
    items.push_back({"serve.queue_wait", 1e3 * median(serving.queue_ms)});
    items.push_back({"mpi.runtime_spawn", spawn_us});
  }
  double sum = 0.0;
  std::string parts_str;
  for (const Item& it : items) {
    sum += it.us;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%.2f", it.name, it.us);
    parts_str += buf;
  }
  std::fprintf(stderr,
               "layer budget [%s]: %s=%.2f us; layers (us/query):%s; sum=%.2f; "
               "unexplained=%.2f us (%.1f%%)\n",
               opt.workload.c_str(), basis_name, basis, parts_str.c_str(), sum,
               basis - sum, basis == 0.0 ? 0.0 : 100.0 * (basis - sum) / basis);
  std::fprintf(stderr, "layer probe took %.1f s\n",
               seconds_between(t0, Clock::now()));
}

}  // namespace perfbench
