#include <algorithm>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},          {"qps", "q/s"},         {"batch_p50_ms", "ms"},
    {"recall_at_10", "ratio"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"max_rate_qps", "q/s"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"simd.l2_ns_per_dist", "ns"},
    {"simd.l2_ns_per_dist_scattered", "ns"},
    {"simd.l2_u8_ns_per_dist", "ns"},
    {"vptree.route_us_per_query", "us"},
    {"vptree.partitions_per_query", "count"},
    {"vptree.build_s", "s"},
    {"vptree.partition_size_cv", "ratio"},
    {"hnsw.search_us_per_job", "us"},
    {"hnsw.build_s_per_partition", "s"},
    {"quant.search_us_per_job", "us"},
    {"quant.compression_ratio", "ratio"},
    {"segment.insert_us_per_row", "us"},
    {"segment.compact_ms", "ms"},
    {"segment.delta_fill_peak", "rows"},
    {"recovery.wal_commit_us", "us"},
    {"recovery.wal_bytes_per_row", "B"},
    {"protocol.encode_job_us", "us"},
    {"protocol.decode_job_us", "us"},
    {"protocol.job_bytes", "B"},
    {"protocol.slot_update_bytes", "B"},
    {"engine.route_us_per_query", "us"},
    {"engine.dispatch_us_per_job", "us"},
    {"engine.merge_us_per_query", "us"},
    {"engine.jobs_per_query", "count"},
    {"engine.p2p_bytes_per_job", "B"},
    {"engine.rma_ops_per_query", "count"},
    {"engine.load_cv", "ratio"},
    {"engine.batch_overhead_ms", "ms"},
    {"engine.worker_compute_s", "s"},
    {"mpi.runtime_spawn_us", "us"},
    {"mpi.p2p_roundtrip_us", "us"},
    {"mpi.get_accumulate_us", "us"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.generator_late_p99_ms", "ms"},
    {"process.cpu_ms_per_query", "ms"},
};

void require_metrics(const Result& r, const std::vector<MetricSpec>& specs) {
  std::vector<std::string> want;
  for (const MetricSpec& m : specs) want.emplace_back(m.name);
  std::sort(want.begin(), want.end());
  if (r.names() != want) {
    throw std::runtime_error("reported metrics differ from the metric list");
  }
  for (const MetricSpec& m : specs) {
    if (r.unit(m.name) != m.unit) {
      throw std::runtime_error(std::string("unit mismatch for ") + m.name);
    }
  }
}

}  // namespace perfbench
