#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded from the benchmark's own files, around its calls into
/// each annsim module. Each span has a name ("<layer>.<op>"), start, end,
/// the span that caused it, and a request id shared by the spans of one
/// request. Spans stay in memory and are written out once, as Chrome
/// trace-event JSON, when the run ends. Self time (a span's duration minus
/// the part its children cover) is computed from the parent links.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";    ///< string literal, "<layer>.<op>"
  std::uint64_t start_ns = 0;  ///< since the tracer's epoch
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;   ///< 0 = not tied to one request
  std::uint32_t id = 0;        ///< 1-based; 0 = none
  std::uint32_t parent = 0;    ///< 0 = root
  std::uint32_t tid = 0;       ///< small per-thread index
};

/// Per-name totals over the recorded spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

class Tracer {
 public:
  /// Spans beyond this many are counted in dropped() and not kept.
  static constexpr std::size_t kMaxSpans = 1u << 20;

  static Tracer& instance();

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t now_ns() const noexcept;
  [[nodiscard]] std::uint64_t to_ns(Clock::time_point t) const noexcept;

  /// Allocate a span id, for callers that record a parent after its children.
  std::uint32_t next_id() noexcept { return next_id_.fetch_add(1) + 1; }

  /// Record a finished span with explicit times. No-op when disabled.
  void record(std::uint32_t id, const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint32_t parent,
              std::uint64_t request);

  /// Totals per span name, self time included.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_.load(); }

  /// Write every span as Chrome trace-event JSON ("X" events; args carry
  /// span id, parent id, request id and end time). `other` is a JSON object
  /// stored under "otherData". Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& other) const;

  /// Small stable index of the calling thread (for the trace's tid field).
  static std::uint32_t thread_index() noexcept;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call. Its parent is the innermost open span of the
/// same thread; a zero request id inherits the parent's.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t request_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};

}  // namespace perfbench
