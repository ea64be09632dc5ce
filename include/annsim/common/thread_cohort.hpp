#pragma once
/// \file thread_cohort.hpp
/// \brief Run the members of a cohort at once on parked OS threads.
///
/// A cohort is a set of members that run at the same time and may block on
/// each other: the simulated MPI ranks of one Runtime::run, or a worker's
/// thread team (Algorithm 4). In the paper each rank is a process that starts
/// once and keeps its OpenMP team across batches; here a search batch borrows
/// already-started threads instead of creating and joining a fresh set.
///
/// The fixed-size ThreadPool does not fit: its jobs queue behind each other,
/// and a member queued behind a member that waits for it would deadlock. A
/// cohort therefore never waits for a free thread — when none is parked, it
/// starts a new one, which parks after its member returns.

#include <cstddef>
#include <cstdint>
#include <functional>

namespace annsim {

class ThreadCohort {
 public:
  /// Run fn(0), ..., fn(n-1) at the same time and return once all returned.
  /// The calling thread runs member 0; the others run on parked threads
  /// shared by the whole process. The first exception a member throws is
  /// rethrown here after every member finished. Cohorts nest: a member may
  /// run a cohort of its own. Failing to start a thread terminates the
  /// process, as the members already running could wait for it forever.
  ///
  /// Not fork-safe: a child process inherits none of the parked threads but
  /// would wait for them.
  static void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// OS threads started for cohorts since the process began. Cohorts reuse
  /// parked threads, so this stays flat once the peak number of concurrent
  /// members has been reached.
  [[nodiscard]] static std::uint64_t threads_created() noexcept;
};

}  // namespace annsim
