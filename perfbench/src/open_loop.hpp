#pragma once
/// \file open_loop.hpp
/// \brief Open-loop arrival generator.
///
/// Arrivals follow a fixed Poisson schedule made from a seed. Each request
/// is timed from its due time, not from when the server admitted it, so a
/// stall in the generator or in submit() is charged to every request it
/// delays. The generator also reports how late it ran: the gap between a
/// request's due time and the moment it was handed to the server.

#include <cstddef>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// Offsets in ms from the start of `n` Poisson arrivals at `rate_per_s`.
inline std::vector<double> poisson_schedule(std::size_t n, double rate_per_s,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s / 1000.0);
  std::vector<double> out(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(rng);
    out[i] = t;
  }
  return out;
}

inline Clock::time_point at_offset(Clock::time_point start, double offset_ms) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(offset_ms));
}

/// Latency of a request timed from its due time: the generator's lateness
/// (due -> handed to the server) plus the server's own admission ->
/// completion time.
inline double latency_from_due_ms(Clock::time_point due, Clock::time_point sent,
                                  double server_total_ms) {
  return ms_between(due, sent) + server_total_ms;
}

/// Walk the schedule: sleep until each arrival is due, then call
/// `send(i, due, sent)` with `sent` taken just before the call. Returns each
/// arrival's lateness (sent - due) in ms. `send` must not block on the
/// request's completion.
template <class Send>
std::vector<double> run_open_loop(const std::vector<double>& offsets_ms,
                                  Clock::time_point start, Send&& send) {
  std::vector<double> late(offsets_ms.size());
  for (std::size_t i = 0; i < offsets_ms.size(); ++i) {
    const Clock::time_point due = at_offset(start, offsets_ms[i]);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    late[i] = ms_between(due, sent);
    send(i, due, sent);
  }
  return late;
}

}  // namespace perfbench
