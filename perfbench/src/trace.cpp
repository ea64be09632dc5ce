#include "trace.hpp"

#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

struct OpenSpan {
  std::uint32_t id;
  std::uint64_t request;
};

thread_local std::vector<OpenSpan> t_open;

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::to_ns(Clock::time_point t) const noexcept {
  if (t <= epoch_) return 0;
  return std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

std::uint64_t Tracer::now_ns() const noexcept { return to_ns(Clock::now()); }

std::uint32_t Tracer::thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1) + 1;
  return index;
}

void Tracer::record(std::uint32_t id, const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent,
                    std::uint64_t request) {
  if (!enabled()) return;
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns < start_ns ? start_ns : end_ns;
  r.request = request;
  r.id = id;
  r.parent = parent;
  r.tid = thread_index();
  std::lock_guard lk(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(r);
}

std::size_t Tracer::size() const {
  std::lock_guard lk(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard lk(mu_);
  std::unordered_map<std::uint32_t, double> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += double(s.end_ns - s.start_ns);
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans_) {
    SpanTotals& t = out[s.name];
    const double dur = double(s.end_ns - s.start_ns);
    auto it = child_ns.find(s.id);
    const double children = it == child_ns.end() ? 0.0 : it->second;
    t.count += 1;
    t.total_ns += dur;
    t.self_ns += dur > children ? dur - children : 0.0;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& other) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard lk(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other
      << ", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %u, "
        "\"parent\": %u, \"request\": %llu, \"end_us\": %.3f}}%s\n",
        s.name, int(std::string(s.name).find('.')), s.name, s.tid,
        double(s.start_ns) / 1e3, double(s.end_ns - s.start_ns) / 1e3, s.id,
        s.parent, static_cast<unsigned long long>(s.request),
        double(s.end_ns) / 1e3, i + 1 == spans_.size() ? "" : ",");
    out << buf;
  }
  out << "]}\n";
  return bool(out);
}

Span::Span(const char* name, std::uint64_t request) : name_(name) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  id_ = t.next_id();
  if (!t_open.empty()) {
    parent_ = t_open.back().id;
    if (request == 0) request = t_open.back().request;
  }
  request_ = request;
  t_open.push_back({id_, request_});
  start_ns_ = t.now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer& t = Tracer::instance();
  const std::uint64_t end = t.now_ns();
  t_open.pop_back();
  t.record(id_, name_, start_ns_, end, parent_, request_);
}

}  // namespace perfbench
