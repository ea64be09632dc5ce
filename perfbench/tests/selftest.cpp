// Self-tests of the benchmark's helpers: the percentile rule, metric names,
// the result line, span self times, and due-time accounting of the open-loop
// generator against a stub server. Exit code 0 when every check passes.
//
//   perfbench_selftest [scratch-dir]

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "bench.hpp"
#include "open_loop.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace pb = perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

template <class Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = double(n - 1 - i);  // unsorted
  return v;
}

void test_percentiles() {
  check(pb::samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  check(pb::samples_beyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  check(pb::samples_beyond(0, 0.5) == 0, "empty sample");
  check(!pb::tail_percentile(iota(999), 0.99), "p99 of 999 samples withheld");
  const auto p99 = pb::tail_percentile(iota(1000), 0.99);
  check(p99 && *p99 == 989.0, "p99 of 0..999 is 989");
  check(!pb::tail_percentile(iota(199), 0.95), "p95 needs 200 samples");
  check(pb::tail_percentile(iota(200), 0.95).has_value(), "p95 of 200");
  check(pb::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  check(!pb::percentile({}, 0.5), "percentile of nothing");
  check(pb::percentile({5.0}, 0.99) == 5.0, "one sample");
  check(pb::coeff_of_variation({2.0, 2.0, 2.0}) == 0.0, "cv of constants");

  // Windowed tails: bursts confined to some of five windows do not move the
  // reported p99, a slowdown in every window does, and a window too short
  // for its p99 withholds the tail.
  std::vector<double> calm(5000, 1.0);
  for (std::size_t i = 0; i < 3000; ++i) {
    if (i % 1000 < 200) calm[i] = 100.0;  // bursts in windows 0, 1 and 2
  }
  check(pb::tail_percentile(calm, 0.99) == 100.0, "bursts set the plain p99");
  check(pb::windowed_percentile(calm, 5, 0.99) == 1.0,
        "windowed p99 ignores bursts in three of five windows");
  std::vector<double> slow(5000, 1.0);
  for (std::size_t i = 0; i < slow.size(); i += 50) slow[i] = 7.0;
  check(pb::windowed_percentile(slow, 5, 0.99) == 7.0,
        "windowed p99 keeps a stall that hits every window");
  check(!pb::windowed_percentile(iota(4999), 5, 0.99),
        "windows of 999 samples withhold the p99");
  check(pb::windowed_percentile(iota(5000), 1, 0.5, 0) == 2499.0,
        "one window is the plain median");
}

void test_metric_names() {
  std::set<std::string> seen;
  for (const auto* list : {&pb::kEndToEndMetrics, &pb::kPerLayerMetrics}) {
    for (const pb::MetricSpec& m : *list) {
      check(pb::valid_metric_name(m.name), std::string("valid name ") + m.name);
      check(pb::valid_unit(m.unit), std::string("valid unit of ") + m.name);
      check(seen.insert(m.name).second, std::string("unique name ") + m.name);
    }
  }
  check(seen.count("setup_s") == 1, "setup_s is reported");
  for (const char* bad : {"", "_lead", ".lead", "has space", "semi;colon",
                          "x/y"}) {
    check(!pb::valid_metric_name(bad), std::string("rejects name '") + bad + "'");
  }
  check(!pb::valid_metric_name(std::string(65, 'a')), "rejects 65 chars");
  check(pb::valid_metric_name(std::string(64, 'a')), "accepts 64 chars");
  check(!pb::valid_unit(""), "rejects empty unit");
  check(!pb::valid_unit("seconds_per_query"), "rejects 17-char unit");
  check(pb::valid_unit("q/s") && pb::valid_unit("%"), "accepts q/s and %");

  pb::Result r;
  r.add("a.b", 1.5, "ms");
  check(throws([&] { r.add("a.b", 2.0, "ms"); }), "duplicate metric refused");
  check(throws([&] { r.add("bad name", 1.0, "ms"); }), "bad name refused");
  check(throws([&] { r.add("nan", std::nan(""), "ms"); }), "NaN refused");
  r.attempted = 3;
  check(r.to_json() ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
        "result line format");
  check(throws([&] { pb::require_metrics(r, pb::kEndToEndMetrics); }),
        "incomplete metric set refused");
}

void test_span_self_time(const std::string& dir) {
  pb::Tracer& t = pb::Tracer::instance();
  t.set_enabled(true);
  {
    pb::Span outer("test.outer", 42);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pb::Span inner("test.inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  t.set_enabled(false);
  const auto totals = t.totals();
  const pb::SpanTotals& outer = totals.at("test.outer");
  const pb::SpanTotals& inner = totals.at("test.inner");
  check(outer.count == 1 && inner.count == 1, "one span each");
  check(inner.self_ns == inner.total_ns, "leaf self time is its duration");
  check(outer.self_ns >= 1.5e6 && outer.self_ns < outer.total_ns - 2.5e6,
        "parent self time excludes the child");
  const std::string path = dir + "/selftest-trace.json";
  check(t.write_chrome(path, "{}"), "chrome trace written");
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  check(text.find("\"name\": \"test.inner\"") != std::string::npos &&
            text.find("\"request\": 42") != std::string::npos &&
            text.find("\"parent\": 0") != std::string::npos &&
            text.find("\"traceEvents\"") != std::string::npos,
        "chrome trace carries name, parent and request id");
}

/// FIFO server stub with a fixed service time. It reports, like the real
/// query server, the admission -> completion time of each request, and
/// also keeps the absolute completion time for the test to compare with.
class StubServer {
 public:
  struct Reply {
    double total_ms = 0.0;
    pb::Clock::time_point done{};
  };

  explicit StubServer(double service_ms) : service_ms_(service_ms) {
    worker_ = std::thread([this] { loop(); });
  }
  ~StubServer() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    worker_.join();
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  std::future<Reply> submit() {
    Item item;
    item.admitted = pb::Clock::now();
    auto fut = item.promise.get_future();
    {
      std::lock_guard lk(mu_);
      queue_.push_back(std::move(item));
    }
    cv_.notify_one();
    return fut;
  }

 private:
  struct Item {
    pb::Clock::time_point admitted;
    std::promise<Reply> promise;
  };

  void loop() {
    std::unique_lock lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      Item item = std::move(queue_.front());
      queue_.pop_front();
      lk.unlock();
      const auto until = pb::at_offset(pb::Clock::now(), service_ms_);
      while (pb::Clock::now() < until) {
      }
      Reply r;
      r.done = pb::Clock::now();
      r.total_ms = pb::ms_between(item.admitted, r.done);
      item.promise.set_value(r);
      lk.lock();
    }
  }

  double service_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stop_ = false;
  std::thread worker_;
};

void test_due_time_accounting() {
  // 20 arrivals 1 ms apart; handing over the first one stalls the
  // generator for 10 ms, so the next ones go out late.
  std::vector<double> offsets;
  for (int i = 1; i <= 20; ++i) offsets.push_back(double(i));
  StubServer server(0.2);
  std::vector<std::future<StubServer::Reply>> futs(offsets.size());
  std::vector<pb::Clock::time_point> due(offsets.size()), sent(offsets.size());
  const auto start = pb::Clock::now();
  const std::vector<double> late = pb::run_open_loop(
      offsets, start, [&](std::size_t i, pb::Clock::time_point d,
                          pb::Clock::time_point s) {
        due[i] = d;
        sent[i] = s;
        futs[i] = server.submit();
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      });
  check(late.size() == offsets.size(), "lateness per arrival");
  check(late[1] >= 8.0, "the stall makes the next arrival late");
  check(late[15] < late[1], "the generator catches up");
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const StubServer::Reply r = futs[i].get();
    const double from_due = pb::latency_from_due_ms(due[i], sent[i], r.total_ms);
    const double truth = pb::ms_between(due[i], r.done);
    check(std::abs(from_due - truth) < 0.05,
          "latency from due time matches the stub's completion, request " +
              std::to_string(i));
    check(from_due >= late[i] + 0.2 - 1e-9,
          "latency includes lateness and service, request " + std::to_string(i));
    if (i == 1) {
      check(r.total_ms < from_due - 8.0,
            "timing from admission would hide the stall");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".bench_out/selftest";
  std::filesystem::create_directories(dir);
  test_percentiles();
  test_metric_names();
  test_span_self_time(dir);
  test_due_time_accounting();
  std::filesystem::remove_all(dir);
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
