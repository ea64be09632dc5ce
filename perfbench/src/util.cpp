#include "util.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <thread>

#include "annsim/simd/distance.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  // Nearest rank: the ceil(q * n)-th smallest sample (1-based).
  auto rank = static_cast<std::size_t>(std::ceil(q * double(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

std::optional<double> percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nullopt;
  const std::size_t idx = v.size() - 1 - samples_beyond(v.size(), q);
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(idx), v.end());
  return v[idx];
}

std::optional<double> tail_percentile(std::vector<double> v, double q,
                                      std::size_t min_beyond) {
  if (samples_beyond(v.size(), q) < min_beyond) return std::nullopt;
  return percentile(std::move(v), q);
}

std::optional<double> windowed_percentile(const std::vector<double>& v,
                                          std::size_t windows, double q,
                                          std::size_t min_beyond) {
  if (windows == 0 || v.size() < windows) return std::nullopt;
  std::vector<double> per_window;
  const std::size_t step = v.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + std::ptrdiff_t(w * step);
    const auto last =
        w + 1 == windows ? v.end() : first + std::ptrdiff_t(step);
    const auto p = tail_percentile({first, last}, q, min_beyond);
    if (!p) return std::nullopt;
    per_window.push_back(*p);
  }
  return *std::min_element(per_window.begin(), per_window.end());
}

double coeff_of_variation(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double m = mean(v);
  if (m == 0.0) return 0.0;
  double ss = 0.0;
  for (double x : v) ss += (x - m) * (x - m);
  return std::sqrt(ss / double(v.size())) / m;
}

namespace {
bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}
bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}
}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("invalid unit for " + name + ": " + unit);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  if (!metrics_.emplace(name, Entry{value, unit}).second) {
    throw std::invalid_argument("metric reported twice: " + name);
  }
}

std::vector<std::string> Result::names() const {
  std::vector<std::string> out;
  for (const auto& [n, e] : metrics_) out.push_back(n);
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << json_string(name) << ": {\"value\": " << json_number(e.value)
       << ", \"unit\": " << json_string(e.unit) << "}";
  }
  os << "}}";
  return os.str();
}

Fingerprint Fingerprint::current() {
  Fingerprint f;
  f.kernel_isa = annsim::simd::kernel_isa();
  f.scalar_forced = annsim::simd::scalar_forced();
  f.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  f.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  f.compiler = "gcc " __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
  return f;
}

std::string Fingerprint::to_json() const {
  std::ostringstream os;
  os << "{\"kernel_isa\": " << json_string(kernel_isa)
     << ", \"scalar_forced\": " << (scalar_forced ? "true" : "false")
     << ", \"nproc\": " << nproc << ", \"compiler\": " << json_string(compiler)
     << ", \"build_type\": " << json_string(build_type) << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return double(tv.tv_sec) * 1e3 + double(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace perfbench
