#include "annsim/common/thread_cohort.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace annsim {
namespace {

/// One run() call: every member reports back here.
struct Cohort {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t running = 0;  ///< members not yet finished
  std::exception_ptr error;

  /// Notifies under the lock: run() may destroy this Cohort as soon as it
  /// sees `running == 0`, which it cannot before the lock is released.
  void finish(std::exception_ptr e) {
    std::lock_guard lk(mu);
    if (e && !error) error = std::move(e);
    if (--running == 0) cv.notify_all();
  }
};

std::exception_ptr run_member(const Cohort& c, std::size_t member) {
  try {
    (*c.fn)(member);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// A parked thread's mailbox; lives as long as its thread (forever).
struct Parked {
  std::condition_variable cv;
  Cohort* cohort = nullptr;  ///< guarded by Pool::mu
  std::size_t member = 0;
};

class Pool {
 public:
  void start(Cohort& c, std::size_t member) noexcept {
    std::unique_lock lk(mu_);
    const bool fresh = idle_.empty();
    Parked* p = fresh ? new Parked : idle_.back();
    if (fresh) {
      created_.fetch_add(1, std::memory_order_relaxed);
    } else {
      idle_.pop_back();
    }
    p->cohort = &c;
    p->member = member;
    lk.unlock();
    if (fresh) {
      std::thread([this, p] { loop(*p); }).detach();
    } else {
      p->cv.notify_one();
    }
  }

  [[nodiscard]] std::uint64_t created() const noexcept {
    return created_.load(std::memory_order_relaxed);
  }

 private:
  void loop(Parked& p) {
    std::unique_lock lk(mu_);
    for (;;) {
      p.cv.wait(lk, [&] { return p.cohort != nullptr; });
      Cohort* c = std::exchange(p.cohort, nullptr);
      const std::size_t member = p.member;
      lk.unlock();
      std::exception_ptr err = run_member(*c, member);
      // Park before reporting, so the caller's next cohort finds this
      // thread idle instead of starting another one.
      lk.lock();
      idle_.push_back(&p);
      lk.unlock();
      c->finish(std::move(err));
      lk.lock();
    }
  }

  std::mutex mu_;
  std::vector<Parked*> idle_;  ///< LIFO: the most recently parked is warmest
  std::atomic<std::uint64_t> created_{0};
};

/// Never destroyed: parked threads outlive static destruction at exit.
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

}  // namespace

void ThreadCohort::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  Cohort c;
  c.fn = &fn;
  c.running = n;
  for (std::size_t i = 1; i < n; ++i) pool().start(c, i);
  c.finish(run_member(c, 0));
  std::unique_lock lk(c.mu);
  c.cv.wait(lk, [&] { return c.running == 0; });
  if (c.error) std::rethrow_exception(c.error);
}

std::uint64_t ThreadCohort::threads_created() noexcept { return pool().created(); }

}  // namespace annsim
