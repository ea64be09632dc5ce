// Repository benchmark: one workload per invocation.
//
//   perfbench --workload batch|serve|mixed --seed N --seconds S --trace 0|1
//
// --trace 0 runs the workload untraced and prints every end-to-end metric.
// --trace 1 runs it untraced and then traced, reports the tracing overhead
// and the layer budget, runs the per-layer probe, writes the spans as
// Chrome trace-event JSON under the output directory, and prints every
// per-layer metric. The last line of stdout is the result object; progress
// and the human-readable summary go to stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "bench.hpp"
#include "trace.hpp"

namespace pb = perfbench;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload batch|serve|mixed "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               msg);
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((std::string(argv[i]) + " needs a value").c_str());
      return argv[++i];
    };
    const std::string a = argv[i];
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--out") {
      opt.out_dir = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.workload != "batch" && opt.workload != "serve" &&
      opt.workload != "mixed") {
    usage(("unknown workload " + opt.workload).c_str());
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

pb::E2E run_workload(const pb::Options& opt, pb::Env& env) {
  env.engine.reset();
  if (opt.workload == "batch") return pb::run_batch(opt, env);
  if (opt.workload == "serve") return pb::run_serve(opt, env);
  return pb::run_mixed(opt, env);
}

void add_e2e(const pb::E2E& e, pb::Result& r) {
  // Same order and units as pb::kEndToEndMetrics.
  r.add("setup_s", e.setup_s, "s");
  r.add("qps", e.qps, "q/s");
  r.add("batch_p50_ms", e.batch_p50_ms, "ms");
  r.add("recall_at_10", e.recall_at_10, "ratio");
  r.add("peak_rss_mb", e.peak_rss_mb, "MB");
}

void print_e2e(const char* label, const pb::E2E& e) {
  std::fprintf(stderr,
               "[%s] setup_s=%.4f qps=%.1f batch_p50_ms=%.3f read_p50_ms=%.3f "
               "read_p99_ms=%.3f max_rate_qps=%.0f write_p50_ms=%.3f "
               "write_p99_ms=%.3f recall_at_10=%.4f peak_rss_mb=%.1f "
               "attempted=%llu failed=%llu error_ratio=%.6f cpu_ms/query=%.4f\n",
               label, e.setup_s, e.qps, e.batch_p50_ms, e.read_p50_ms,
               e.read_p99_ms, e.max_rate_qps, e.write_p50_ms, e.write_p99_ms,
               e.recall_at_10, e.peak_rss_mb,
               static_cast<unsigned long long>(e.attempted),
               static_cast<unsigned long long>(e.failed),
               e.attempted == 0 ? 0.0 : double(e.failed) / double(e.attempted),
               e.cpu_ms_per_query);
  for (const std::string& f : e.failures) {
    std::fprintf(stderr, "[%s] CHECK FAILED: %s\n", label, f.c_str());
  }
}

/// Tracing overhead: traced minus untraced end-to-end numbers.
void print_overhead(const pb::E2E& plain, const pb::E2E& traced) {
  auto rel = [](double a, double b) { return a == 0.0 ? 0.0 : (b - a) / a; };
  std::fprintf(stderr,
               "tracing overhead (traced - untraced): qps %+.1f (%+.1f%%), "
               "read_p50_ms %+.3f (%+.1f%%), read_p99_ms %+.3f (%+.1f%%), "
               "batch_p50_ms %+.3f (%+.1f%%), write_p50_ms %+.3f (%+.1f%%)\n",
               traced.qps - plain.qps, 100 * rel(plain.qps, traced.qps),
               traced.read_p50_ms - plain.read_p50_ms,
               100 * rel(plain.read_p50_ms, traced.read_p50_ms),
               traced.read_p99_ms - plain.read_p99_ms,
               100 * rel(plain.read_p99_ms, traced.read_p99_ms),
               traced.batch_p50_ms - plain.batch_p50_ms,
               100 * rel(plain.batch_p50_ms, traced.batch_p50_ms),
               traced.write_p50_ms - plain.write_p50_ms,
               100 * rel(plain.write_p50_ms, traced.write_p50_ms));
}

/// The metric lists as JSON, so run.py can check them against
/// BENCHMARK.json.
void print_metric_lists() {
  auto list = [](const std::vector<pb::MetricSpec>& specs) {
    std::string s = "[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      s += std::string(i ? ", [" : "[") + pb::json_string(specs[i].name) +
           ", " + pb::json_string(specs[i].unit) + "]";
    }
    return s + "]";
  };
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
              list(pb::kEndToEndMetrics).c_str(),
              list(pb::kPerLayerMetrics).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    print_metric_lists();
    return 0;
  }
  const pb::Options opt = parse(argc, argv);
  try {
    const pb::Fingerprint fp = pb::Fingerprint::current();
    std::fprintf(stderr, "fingerprint %s\n", fp.to_json().c_str());
    std::filesystem::create_directories(opt.out_dir);
    const std::string tag =
        opt.workload + "-" + std::to_string(opt.seed) + "-" +
        std::to_string(opt.trace ? 1 : 0);
    pb::Env env;
    env.scratch_dir = opt.out_dir + "/tmp-" + tag + "-" + std::to_string(getpid());
    pb::remove_tree(env.scratch_dir);
    std::filesystem::create_directories(env.scratch_dir);

    const auto t0 = pb::Clock::now();
    const pb::Corpus corpus = pb::make_corpus(opt.seed);
    env.corpus = &corpus;
    std::fprintf(stderr, "[%s] inputs made in %.2f s (seed %llu)\n",
                 opt.workload.c_str(), pb::seconds_between(t0, pb::Clock::now()),
                 static_cast<unsigned long long>(opt.seed));

    pb::Result result;
    const pb::E2E plain = run_workload(opt, env);
    print_e2e(opt.workload.c_str(), plain);
    pb::E2E reported = plain;
    if (!opt.trace) {
      add_e2e(plain, result);
    } else {
      pb::Tracer& tracer = pb::Tracer::instance();
      tracer.set_enabled(true);
      const pb::E2E traced = run_workload(opt, env);
      print_e2e("traced", traced);
      print_overhead(plain, traced);
      pb::run_layer_probe(opt, env, plain, traced, result);
      tracer.set_enabled(false);
      std::fprintf(stderr, "%-34s %9s %12s %12s\n", "span", "count",
                   "total_ms", "self_ms");
      for (const auto& [name, t] : tracer.totals()) {
        std::fprintf(stderr, "%-34s %9llu %12.3f %12.3f\n", name.c_str(),
                     static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                     t.self_ns / 1e6);
      }
      reported.correct = plain.correct && traced.correct;
      reported.attempted += traced.attempted;
      reported.failed += traced.failed;
      const std::string path = opt.out_dir + "/trace-" + tag + ".json";
      std::string other = "{\"workload\": " + pb::json_string(opt.workload) +
                          ", \"seed\": " + std::to_string(opt.seed) +
                          ", \"fingerprint\": " + fp.to_json() + "}";
      if (!tracer.write_chrome(path, other)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: %zu spans (%llu dropped) written to %s\n",
                   tracer.size(),
                   static_cast<unsigned long long>(tracer.dropped()),
                   path.c_str());
    }
    pb::require_metrics(result, opt.trace ? pb::kPerLayerMetrics
                                          : pb::kEndToEndMetrics);
    result.correct = reported.correct;
    result.attempted = std::max<std::uint64_t>(1, reported.attempted);
    result.failed = reported.failed;

    // Keep a copy of the result with its fingerprint: results whose
    // fingerprints differ are never compared.
    const std::string line = result.to_json();
    std::ofstream(opt.out_dir + "/result-" + tag + ".json", std::ios::trunc)
        << "{\"fingerprint\": " << fp.to_json() << ", \"workload\": "
        << pb::json_string(opt.workload) << ", \"seed\": " << opt.seed
        << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"result\": " << line
        << "}\n";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
