#pragma once
/// \file util.hpp
/// \brief Helpers shared by the benchmark and its self-tests:
/// clocks, the tail-aware percentile rule, metric-name validation, the
/// result-line writer and the host/build fingerprint.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile of `v` (q in [0, 1]); `v` need not be sorted.
/// Returns nullopt for an empty sample.
std::optional<double> percentile(std::vector<double> v, double q);

/// Tail percentile under the reporting rule: a percentile q is only
/// reported when at least `min_beyond` samples lie strictly above its rank,
/// so a p99 needs about 1000 samples. Returns nullopt otherwise.
std::optional<double> tail_percentile(std::vector<double> v, double q,
                                      std::size_t min_beyond = 10);

/// Percentile q of each of `windows` consecutive, equal-sized slices of `v`
/// (in arrival order), then the smallest over the slices. Noise from other
/// tenants of a shared host only adds time and comes in bursts that hit
/// some slices and not others; a slowdown of the program itself shows in
/// every slice. Every slice must satisfy the tail rule of tail_percentile;
/// otherwise nullopt. One window is the plain percentile.
std::optional<double> windowed_percentile(const std::vector<double>& v,
                                          std::size_t windows, double q,
                                          std::size_t min_beyond = 10);

/// Number of samples strictly above the nearest-rank position of q.
std::size_t samples_beyond(std::size_t n, double q);

inline double median(std::vector<double> v) {
  auto p = percentile(std::move(v), 0.5);
  if (!p) throw std::runtime_error("median of an empty sample");
  return *p;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / double(v.size());
}

/// Coefficient of variation (population stddev / mean); 0 for empty input.
double coeff_of_variation(const std::vector<double>& v);

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, '_', '.' or '-'.
bool valid_metric_name(const std::string& name);

/// Units: 1-16 letters, digits, '_', '/', '%', '.' or '-'.
bool valid_unit(const std::string& unit);

/// Collects named metrics and renders the result line the benchmark
/// prints last: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
class Result {
 public:
  /// Throws std::invalid_argument on an invalid or repeated name/unit, or a
  /// non-finite value.
  void add(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] double value(const std::string& name) const {
    return metrics_.at(name).value;
  }
  [[nodiscard]] const std::string& unit(const std::string& name) const {
    return metrics_.at(name).unit;
  }
  [[nodiscard]] std::vector<std::string> names() const;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// One JSON object on one line.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
};

/// Format a double with all its significant digits for JSON.
std::string json_number(double v);
/// Quote and escape a string for JSON.
std::string json_string(const std::string& s);

/// Host and build identity recorded with every result: kernel ISA, whether
/// the scalar kernels were forced, core count, compiler and build type.
struct Fingerprint {
  std::string kernel_isa;
  bool scalar_forced = false;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;

  static Fingerprint current();
  [[nodiscard]] std::string to_json() const;
};

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();
/// User + system CPU time of this process, in milliseconds.
double process_cpu_ms();

}  // namespace perfbench
