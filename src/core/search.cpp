#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>

#include "annsim/common/backoff.hpp"
#include "annsim/common/error.hpp"
#include "annsim/common/thread_cohort.hpp"
#include "annsim/common/timer.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/core/dataset_transfer.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/core/protocol.hpp"

namespace annsim::core {

// The search plane (Algorithms 3-5): one dispatch/collect loop serves both
// dispatch strategies and both result transports. Failure detection is only
// a finite deadline on that loop. Without one (result_timeout_ms == 0) every
// wait blocks, nothing can fail over, and a fault-free batch issues exactly
// the MPI calls of a program written without fault tolerance.

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

enum class JobState : char { kPending, kMerged, kAbandoned };

/// One (query, partition) search job and the worker it is assigned to.
struct Job {
  std::uint32_t query = 0;
  PartitionId partition = kInvalidPartition;
  std::uint32_t ef = 0;  ///< beam width; 0 = index default
  int worker = -1;  ///< current assignee (worker id, not rank); -1 = none live
  JobState state = JobState::kPending;
  bool retried = false;  ///< re-dispatched after its first assignee died
};

/// A batch's jobs, flat and grouped by query: query q owns
/// jobs[first[q], first[q + 1]). Queries are added in order.
struct JobTable {
  std::vector<Job> jobs;
  std::vector<std::uint32_t> first{0};
  std::vector<std::uint32_t> pending;  ///< per query: jobs still pending
  std::uint64_t outstanding = 0;       ///< pending jobs in the whole batch

  [[nodiscard]] std::size_t queries() const noexcept { return first.size() - 1; }
  [[nodiscard]] std::span<Job> row(std::size_t q) {
    ANNSIM_CHECK_MSG(q < queries(), "result for unknown query " << q);
    return {jobs.data() + first[q], jobs.data() + first[q + 1]};
  }
};

/// Per-worker liveness record of the collect loop.
struct Watch {
  std::uint32_t pending = 0;  ///< jobs assigned and not yet merged
  Clock::time_point last_activity, last_heartbeat;
  std::uint64_t heartbeats = 0;
};

struct Round;

/// Where the master merges job results (§IV-C1).
class MergeSink {
 public:
  virtual ~MergeSink() = default;
  /// Wait for results and land every pending job whose result merged. False
  /// when nothing arrived, or when there is nothing to wait on.
  virtual bool pump(Round& round) = 0;
  /// Query q has no pending job left: finalize it if its result is known.
  virtual void complete(Round& round, std::size_t q) = 0;
  /// After every worker's done notice: finalize what complete() left open.
  virtual void drain(Round& round) = 0;
};

/// Collect one DoneNotice from each worker flagged in `waiting`, folding the
/// Fig 4(b) job counts and the worker timers into `stats`, and clear its
/// flag. A flag still set on return marks a worker silent past `timeout`.
void collect_done_notices(mpi::Comm& world, microseconds timeout,
                          std::vector<char>& waiting, SearchStats& stats) {
  while (std::count(waiting.begin(), waiting.end(), 1) > 0) {
    auto m = recv_within(world, mpi::kAnySource, kTagDone, timeout);
    if (!m.has_value()) return;
    const std::size_t w = std::size_t(m->source) - 1;
    // A worker declared dead (perhaps too eagerly) may still report; its
    // notice is residue.
    if (!waiting[w]) continue;
    waiting[w] = 0;
    BinaryReader rd(m->payload);
    const auto notice = rd.read<DoneNotice>();
    stats.jobs_per_worker[w] = notice.jobs_processed;
    stats.worker_compute_seconds += notice.compute_seconds;
    stats.worker_comm_seconds += notice.comm_seconds;
    stats.master_route_seconds += notice.route_seconds;  // owner-side routing
  }
}

void send_eoq(mpi::Comm& world, std::size_t n_workers, PhaseTimer& dispatch_t) {
  for (std::size_t w = 0; w < n_workers; ++w) {
    ScopedPhase p(dispatch_t);
    (void)world.isend_reserved(int(w) + 1, kTagEoq, {});
  }
}

/// The master half of a batch (Algorithms 3 and 5): dispatch each query's
/// jobs round-robin over its partitions' workgroups, collect their results
/// through a merge sink, finalize every query exactly once. Rank 0 runs one
/// round for the whole batch in master-worker mode; each owner runs one for
/// its own queries in multiple-owner mode.
struct Round {
  mpi::Comm& world;
  const data::Dataset& queries;
  std::size_t k;
  std::size_t replication;
  microseconds timeout;  ///< failure-detection deadline; 0 = none
  std::vector<char>& alive;
  std::function<bool(std::size_t w, PartitionId d)> hosts;
  data::KnnResults& results;
  SearchStats& stats;
  QueryDoneFn on_done;

  JobTable table{};
  MergeSink* sink = nullptr;
  bool finalize_complete = false;
  std::vector<std::uint32_t> next = std::vector<std::uint32_t>(alive.size(), 0);
  std::vector<Watch> watch = std::vector<Watch>(alive.size());
  std::size_t finalized = 0;
  PhaseTimer dispatch_t{}, merge_t{};

  /// Send `job` to the next live member of its partition d's workgroup
  /// W_d = {d, d+1, ..., d+r-1 mod P} (Algorithm 5's round-robin pointer).
  /// False (job.worker = -1) when no live member hosts d.
  bool dispatch(Job& job) {
    const PartitionId d = job.partition;
    const auto r = std::uint32_t(replication);
    for (std::uint32_t probe = 0; probe < r; ++probe) {
      const std::size_t member = (d + next[d]) % alive.size();
      next[d] = (next[d] + 1) % r;
      // A member must be alive *and* actually hold the replica: a heal that
      // found a partition unrecoverable revives the worker without it.
      if (!alive[member] || !hosts(member, d)) continue;
      QueryJob qj;
      qj.query_id = job.query;
      qj.partition = d;
      qj.k = std::uint32_t(k);
      qj.ef = job.ef;
      qj.reply_to = std::uint32_t(world.rank());
      qj.query.assign(queries.row(job.query), queries.row(job.query) + queries.dim());
      ScopedPhase p(dispatch_t);
      (void)world.isend(int(member) + 1, kTagQuery, encode_query_job(qj));
      ++watch[member].pending;
      job.worker = int(member);
      return true;
    }
    job.worker = -1;
    return false;
  }

  /// Close the next query's row (jobs already appended to the table stay in
  /// it) with one dispatched job per partition of `plan`.
  void add_query(std::span<const PartitionId> plan, std::uint32_t ef) {
    const auto q = std::uint32_t(table.queries());
    std::uint32_t pending = 0;
    for (PartitionId d : plan) {
      Job job{q, d, ef};
      // No live replica before the batch even started: the partition cannot
      // be searched and the query will finalize short.
      if (!dispatch(job)) job.state = JobState::kAbandoned;
      pending += job.state == JobState::kPending ? 1 : 0;
      table.jobs.push_back(job);
    }
    table.pending.push_back(pending);
    table.outstanding += pending;
    table.first.push_back(std::uint32_t(table.jobs.size()));
  }

  /// The collect loop: merge results until every job is merged or abandoned.
  /// With `finalize` a query finalizes as soon as the sink knows its result;
  /// exact routing's phase 1 collects without finalizing.
  void collect(MergeSink& s, bool finalize) {
    sink = &s;
    finalize_complete = finalize;
    for (std::size_t q = 0; q < table.queries(); ++q) {
      // Nothing of this query is in flight: it completes now or never.
      if (table.pending[q] == 0) complete(q);
    }
    for (Watch& wt : watch) wt.last_activity = wt.last_heartbeat = Clock::now();
    while (table.outstanding > 0) {
      const bool arrived = sink->pump(*this);
      // No deadline, no stall to detect. A sink that cannot wait without one
      // (one-sided) leaves the jobs to its drain().
      if (timeout.count() == 0) {
        if (!arrived) break;
        continue;
      }
      const auto now = Clock::now();
      while (world.iprobe(mpi::kAnySource, kTagHeartbeat)) {
        const mpi::Message m = world.recv(mpi::kAnySource, kTagHeartbeat);
        Watch& wt = watch[std::size_t(m.source) - 1];
        ++wt.heartbeats;
        wt.last_heartbeat = now;
      }
      for (std::size_t w = 0; w < alive.size(); ++w) {
        // Job-activity deadline: pending work with no visible progress. Kept
        // alongside the heartbeat deadline because an alive-but-drop-starved
        // worker heartbeats happily while its results never arrive.
        const bool stalled =
            watch[w].pending > 0 && now - watch[w].last_activity >= timeout;
        // Heartbeat deadline: the liveness beacon went silent.
        const bool silent = now - watch[w].last_heartbeat >= timeout;
        if (alive[w] && (stalled || silent)) declare_dead(w);
      }
    }
  }

  void land(Job& job) {
    job.state = JobState::kMerged;
    if (job.retried) ++stats.failovers;
    Watch& wt = watch[std::size_t(job.worker)];
    --wt.pending;
    wt.last_activity = Clock::now();
    --table.outstanding;
    if (--table.pending[job.query] == 0) complete(job.query);
  }

  void complete(std::size_t q) {
    if (finalize_complete) sink->complete(*this, q);
  }

  void finalize(std::size_t q, std::vector<Neighbor> neighbors) {
    const std::span<const Job> row = table.row(q);
    std::uint32_t merged = 0;
    bool abandoned = false;
    for (const Job& job : row) {
      merged += job.state == JobState::kMerged ? 1 : 0;
      abandoned = abandoned || job.state == JobState::kAbandoned;
    }
    const QueryCoverage cov{merged, std::uint32_t(row.size())};
    ANNSIM_CHECK_MSG(abandoned || !cov.degraded(),
                     "query " << q << ": merged " << merged << " of "
                              << cov.partitions_planned
                              << " planned partitions with none abandoned");
    results[q] = std::move(neighbors);
    ++finalized;
    stats.coverage[q] = cov;
    if (cov.degraded()) ++stats.degraded_queries;
    if (on_done) on_done(q, results[q], cov);
  }

  /// Declare worker `w` dead — beyond this batch too: the engine folds it
  /// into its health record. Each of its pending jobs fails over to the next
  /// live replica of the partition; a job with no live replica left is
  /// abandoned and its query completes degraded.
  void declare_dead(std::size_t w) {
    alive[w] = 0;
    ++stats.workers_failed;
    watch[w].pending = 0;
    for (Job& job : table.jobs) {
      if (job.state != JobState::kPending || job.worker != int(w)) continue;
      if (dispatch(job)) {
        job.retried = true;
        ++stats.retries;
        watch[std::size_t(job.worker)].last_activity = Clock::now();
      } else {
        job.state = JobState::kAbandoned;
        --table.outstanding;
        if (--table.pending[job.query] == 0) complete(job.query);
      }
    }
  }
};

/// Two-sided: each result arrives as a kTagResult message and folds into its
/// query's TopK, so a query finalizes as soon as its last job lands. That
/// streams completions in finish order — the serving plane's latency signal.
class MessageSink final : public MergeSink {
 public:
  MessageSink(std::size_t nq, std::size_t k) : acc_(nq, TopK(k)) {}

  bool pump(Round& round) override {
    auto msg = recv_within(round.world, mpi::kAnySource, kTagResult, round.timeout);
    if (!msg.has_value()) return false;
    ScopedPhase p(round.merge_t);
    LocalResult r = decode_local_result(msg->payload);
    for (Job& job : round.table.row(r.query_id)) {
      // A job no longer pending got a late duplicate from a worker declared
      // dead too eagerly: it merged elsewhere or was abandoned. Drop it.
      if (job.partition != r.partition || job.state != JobState::kPending) continue;
      acc_[r.query_id].merge(r.neighbors);
      round.land(job);
      break;
    }
    return true;
  }
  void complete(Round& round, std::size_t q) override {
    round.finalize(q, acc_[q].take_sorted());
  }
  void drain(Round&) override {}

  /// k-th distance merged so far for query q (+inf below k neighbors).
  [[nodiscard]] float kth_distance(std::size_t q) const {
    return acc_[q].worst_dist();
  }

 private:
  std::vector<TopK> acc_;
};

/// One-sided: workers get_accumulate into the master's masked slots, and the
/// master reads progress from each slot's partition mask. Without a deadline
/// the master never polls: the workers' done notices, sent after they close
/// their access epochs, prove every accumulate landed, and drain() then
/// finalizes all slots together at the end of the batch epoch.
class SlotSink final : public MergeSink {
 public:
  SlotSink(mpi::Window& win, const SlotLayout& layout) : win_(win), layout_(layout) {}

  bool pump(Round& round) override {
    if (round.timeout.count() == 0) return false;
    const std::uint64_t before = round.table.outstanding;
    win_.lock_shared(0);
    for (std::size_t q = 0; q < round.table.queries(); ++q) {
      if (round.table.pending[q] == 0) continue;
      const auto hdr = win_.get(0, layout_.slot_offset(q), layout_.header_bytes());
      fold(round, q, decode_slot_header(hdr, layout_).mask);
    }
    win_.unlock(0);
    if (round.table.outstanding < before) return true;
    sleep_approx(std::max(round.timeout / 8, microseconds(100)));
    return false;
  }
  void complete(Round&, std::size_t) override {}
  void drain(Round& round) override {
    // (A real MPI master reads its exposed buffer directly; we go through
    // get() so the C++ memory model sees the same synchronisation the
    // window's target lock provides.)
    ScopedPhase p(round.merge_t);
    win_.lock_shared(0);
    for (std::size_t q = 0; q < round.table.queries(); ++q) {
      DecodedSlot slot = decode_slot(
          win_.get(0, layout_.slot_offset(q), layout_.slot_bytes()), layout_);
      const std::uint32_t covered = fold(round, q, slot.mask);
      ANNSIM_CHECK_MSG(slot.merged_count == covered,
                       "slot " << q << ": merged " << slot.merged_count
                               << " but mask shows " << covered);
      round.finalize(q, std::move(slot.neighbors));
    }
    win_.unlock(0);
  }

 private:
  /// Mark every job of query q whose partition bit is set in `mask` merged:
  /// pending ones land, and the mask absorbs merges that landed after their
  /// worker was (too eagerly) declared dead. Returns the jobs it covers.
  static std::uint32_t fold(Round& round, std::size_t q,
                            std::span<const std::uint64_t> mask) {
    std::uint32_t covered = 0;
    for (Job& job : round.table.row(q)) {
      if (!mask_contains(mask, job.partition)) continue;
      ++covered;
      if (job.state == JobState::kPending) round.land(job);
      job.state = JobState::kMerged;
    }
    return covered;
  }

  mpi::Window& win_;
  SlotLayout layout_;
};

/// The paper's "hash function" assigning queries to owners.
std::size_t owner_of(std::size_t query_id, std::size_t n_workers) {
  return (query_id * 0x9e3779b97f4a7c15ULL >> 32) % n_workers;
}

}  // namespace

// Algorithm 3 (baseline) / Algorithm 5 (replication): the master routine.
// Workers declared dead — in this batch or an earlier one, as `alive`
// carries over from the engine's health record — are skipped at dispatch.
void DistributedAnnEngine::master_search(
    mpi::Comm& world, const data::Dataset& queries, std::size_t k,
    std::size_t ef, const SlotLayout* slots, data::KnnResults& results,
    SearchStats& stats, const QueryDoneFn& on_query_done,
    mpi::FaultInjector* fault, std::vector<char>& alive,
    std::vector<std::uint64_t>& heartbeats,
    std::span<const EffortOverride> efforts) {
  const std::size_t P = config_.n_workers;
  const std::size_t nq = queries.size();
  const auto& tree = *router_;
  stats.coverage.assign(nq, {});
  Round round{world, queries, k, config_.replication,
              microseconds(std::int64_t(std::ceil(config_.result_timeout_ms * 1e3))),
              alive,
              [this](std::size_t w, PartitionId d) { return workers_[w].count(d) != 0; },
              results, stats, on_query_done};
  PhaseTimer route_t;

  mpi::Window win;
  std::unique_ptr<MergeSink> sink;
  if (slots != nullptr) {
    win = world.create_window(slots->window_bytes(nq));
    sink = std::make_unique<SlotSink>(win, *slots);
  } else {
    sink = std::make_unique<MessageSink>(nq, k);
  }

  // Brownout effort caps: a per-query override can shrink the beam width and
  // the routing fan-out, never widen them (both are min'd against the batch
  // defaults). Empty span = every query at full effort.
  auto query_ef = [&](std::size_t q) -> std::uint32_t {
    if (!efforts.empty() && efforts[q].ef != 0) {
      const auto cap = efforts[q].ef;
      return ef == 0 ? cap : std::min(cap, std::uint32_t(ef));
    }
    return std::uint32_t(ef);
  };
  auto query_probes = [&](std::size_t q) -> std::size_t {
    std::size_t n = std::min(config_.n_probe, P);
    if (!efforts.empty() && efforts[q].max_probes != 0) {
      n = std::min(n, std::size_t(efforts[q].max_probes));
    }
    return n;
  };

  if (!config_.exact_routing) {
    // Single-pass F(q): best-first top-n_probe partitions.
    for (std::size_t q = 0; q < nq; ++q) {
      // The engine's logical step = queries dispatched: KillRule::at_step
      // rules fire as the clock sweeps past their trigger.
      if (fault != nullptr) fault->advance_step();
      route_t.start();
      const auto plan = tree.route_topk(queries.row(q), query_probes(q));
      route_t.stop();
      round.add_query(plan.partitions, query_ef(q));
    }
  } else {
    // Two-phase exact F(q): the nearest partition first, then every
    // partition intersecting the ball at the observed k-th distance. Exact
    // routing is always two-sided, so the message sink holds the radii.
    for (std::size_t q = 0; q < nq; ++q) {
      route_t.start();
      const PartitionId d = tree.route_nearest(queries.row(q));
      route_t.stop();
      round.add_query({&d, 1}, query_ef(q));
    }
    auto& messages = dynamic_cast<MessageSink&>(*sink);
    round.collect(messages, /*finalize=*/false);
    JobTable phase1 = std::exchange(round.table, JobTable{});
    for (std::size_t q = 0; q < nq; ++q) {
      route_t.start();
      auto parts = tree.route_ball(queries.row(q), messages.kth_distance(q));
      route_t.stop();
      const Job& nearest = phase1.row(q).front();  // merged in phase 1
      std::erase(parts, nearest.partition);
      round.table.jobs.push_back(nearest);
      round.add_query(parts, query_ef(q));
    }
  }

  // Without a deadline no job can fail over, so End-of-Queries goes out
  // right after dispatch. With one, it waits until every job is merged or
  // abandoned, so live workers can serve failover jobs to the end.
  const bool failover = round.timeout.count() > 0;
  if (!failover) send_eoq(world, P, round.dispatch_t);
  round.collect(*sink, /*finalize=*/true);
  if (failover) send_eoq(world, P, round.dispatch_t);
  std::vector<char> silent = alive;
  collect_done_notices(world, round.timeout, silent, stats);
  for (std::size_t w = 0; w < P; ++w) {
    if (silent[w]) round.declare_dead(w);  // died after its last result
  }
  sink->drain(round);
  ANNSIM_CHECK_MSG(round.finalized == nq, "finalized " << round.finalized
                                                       << " of " << nq << " queries");

  for (std::size_t w = 0; w < P; ++w) heartbeats[w] = round.watch[w].heartbeats;
  stats.master_route_seconds = route_t.total_seconds();
  stats.master_dispatch_seconds = round.dispatch_t.total_seconds();
  stats.master_merge_seconds = round.merge_t.total_seconds();
  stats.total_jobs = round.table.jobs.size();
  stats.mean_partitions_per_query =
      nq ? double(stats.total_jobs) / double(nq) : 0.0;
}

// Algorithm 4: the worker routine. A team of threads serves search jobs,
// each polling with MPI_Test, all terminating through the shared Done flag
// once End-of-Queries arrives. `owner_duties`, when set, runs on the rank
// thread beside a borrowed team, and jobs may then come from any owner.
void DistributedAnnEngine::worker_search(
    mpi::Comm& world, const SlotLayout* slots,
    const std::function<void(DoneNotice&)>& owner_duties) {
  const std::size_t me = std::size_t(world.rank()) - 1;
  const int job_source = owner_duties ? mpi::kAnySource : 0;

  // The worker's half of the result transport: a kTagResult message to the
  // job's reply_to rank, or, with `slots`, an accumulate into the master's
  // masked slot.
  mpi::Window win;
  std::function<void(const QueryJob&, std::vector<Neighbor>)> reply =
      [&](const QueryJob& job, std::vector<Neighbor> local) {
        LocalResult r;
        r.query_id = job.query_id;
        r.partition = job.partition;
        r.neighbors = std::move(local);
        (void)world.isend(int(job.reply_to), kTagResult, encode_local_result(r));
      };
  if (slots != nullptr) {
    win = world.create_window(0);
    // Passive-target access epoch at the master, shared mode (§IV-C1): one
    // epoch for the whole batch, shared by this worker's thread team.
    win.lock_shared(0);
    reply = [&win, layout = *slots, merge = knn_slot_merge(*slots)](
                const QueryJob& job, std::vector<Neighbor> local) {
      win.get_accumulate(0, layout.slot_offset(job.query_id),
                         encode_slot_update(local, layout, job.partition), merge);
    };
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> jobs{0};
  std::mutex agg_mu;
  DoneNotice notice;

  auto thread_main = [&] {
    double my_compute = 0.0, my_comm = 0.0;
    for (;;) {
      // A tag set, not a wildcard: the worker names exactly what it is
      // willing to consume, so a stray control message can never be
      // swallowed as a query (annsim::check's wildcard-recv rule).
      mpi::Request req = world.irecv_tags(job_source, {kTagQuery, kTagEoq});
      Backoff backoff;
      bool cancelled = false;
      while (!req.test()) {
        if (done.load(std::memory_order_acquire)) {
          if (req.cancel()) {
            cancelled = true;
            break;
          }
          // Completed concurrently with the flag: fall through and take it.
        }
        backoff.pause();
      }
      if (cancelled) break;
      mpi::Message m = req.take();
      if (m.tag == kTagEoq) {
        done.store(true, std::memory_order_release);
        break;
      }

      const QueryJob job = decode_query_job(m.payload);
      const auto it = workers_[me].find(job.partition);
      ANNSIM_CHECK_MSG(it != workers_[me].end(),
                       "worker " << me << " has no replica of partition "
                                 << job.partition);
      WallTimer tc;
      auto local = it->second.index->search(job.query.data(), job.k, job.ef);
      my_compute += tc.seconds();

      WallTimer tm;
      reply(job, std::move(local));
      my_comm += tm.seconds();
      jobs.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard lk(agg_mu);
    notice.compute_seconds += my_compute;
    notice.comm_seconds += my_comm;
  };

  // Liveness beacon (failure detection only): the rank thread beats on a
  // reliable tag until the batch terminates. The fabric never drops a beat,
  // so the only way the master stops hearing this worker is the worker
  // actually dying — which is exactly what the injector does to a killed
  // rank's sends, reliable or not.
  const bool beacon = config_.result_timeout_ms > 0.0;
  auto rank_duties = [&] {
    if (owner_duties) owner_duties(notice);
    // Four beats per detection deadline, so one late beat never reads as a
    // death.
    const auto interval = microseconds(std::max<std::int64_t>(
        std::int64_t(config_.result_timeout_ms / 4.0 * 1000.0), 100));
    while (beacon && !done.load(std::memory_order_acquire)) {
      (void)world.isend_reserved(0, kTagHeartbeat, {});
      // Sleep the interval in slices so termination stays prompt.
      const auto wake = Clock::now() + interval;
      while (!done.load(std::memory_order_acquire) && Clock::now() < wake) {
        sleep_approx(std::min(interval, microseconds(1000)));
      }
    }
  };

  // Member 0 runs on the rank thread. With owner duties or a beacon it runs
  // those beside a team of threads_per_worker further members; otherwise it
  // is one of the team. A one-member team thus runs inline on the rank
  // thread, which keeps the worker schedulable under annsim::explore: a
  // borrowed member is an untracked helper racing around the controller,
  // whereas the rank thread parks at every choice point.
  const bool rank_side = owner_duties || beacon;
  const std::size_t members = config_.threads_per_worker + (rank_side ? 1 : 0);
  ThreadCohort::run(members, [&](std::size_t member) {
    try {
      if (rank_side && member == 0) {
        rank_duties();
      } else {
        thread_main();
      }
    } catch (...) {
      // A failed member ends the team and silences the beacon: the worker
      // falls silent, and its error reaches the caller of search().
      done.store(true, std::memory_order_release);
      throw;
    }
  });
  if (slots != nullptr) win.unlock(0);

  notice.jobs_processed = jobs.load();
  BinaryWriter w;
  w.write(notice);
  world.send_reserved(0, kTagDone, w.bytes());
}

// Multiple-owner strategy (§IV): the VP tree is shared by all workers; each
// query's owner is determined by a hash; owners route and dispatch their own
// queries, merge the partial results, and forward the final answers to the
// master. The paper found a small win over master-worker that deteriorates at
// scale because this strategy cannot be combined with workgroup replication.

void DistributedAnnEngine::master_search_owner(mpi::Comm& world,
                                               const data::Dataset& queries,
                                               std::size_t k, std::size_t ef,
                                               data::KnnResults& results,
                                               SearchStats& stats,
                                               const QueryDoneFn& on_query_done) {
  const std::size_t P = config_.n_workers;
  const std::size_t nq = queries.size();
  PhaseTimer dispatch_t{}, merge_t{};

  // --- scatter query batches to owners.
  std::vector<std::vector<std::size_t>> batch_ids(P);
  for (std::size_t q = 0; q < nq; ++q) batch_ids[owner_of(q, P)].push_back(q);
  for (std::size_t w = 0; w < P; ++w) {
    BinaryWriter wtr;
    wtr.write(std::uint32_t(k));
    wtr.write(std::uint32_t(ef));
    wtr.write_vector(batch_ids[w]);
    wtr.write_vector(pack_dataset_rows(queries, batch_ids[w]));
    ScopedPhase p(dispatch_t);
    (void)world.isend(int(w) + 1, kTagOwnerBatch, wtr.bytes());
  }

  // --- collect the owners' final answers.
  for (std::size_t i = 0; i < nq; ++i) {
    mpi::Message m = world.recv(mpi::kAnySource, kTagResult);
    ScopedPhase p(merge_t);
    LocalResult r = decode_local_result(m.payload);
    results[r.query_id] = std::move(r.neighbors);
    // Owner mode runs without failure detection; coverage is always full
    // (a zero/zero QueryCoverage is never degraded).
    if (on_query_done) on_query_done(r.query_id, results[r.query_id], {});
  }

  // Every answer in hand means every job was searched and its result merged
  // by its owner, so End-of-Queries can terminate the worker teams.
  send_eoq(world, P, dispatch_t);
  std::vector<char> waiting(P, 1);
  collect_done_notices(world, microseconds(0), waiting, stats);

  for (const std::uint64_t jobs : stats.jobs_per_worker) stats.total_jobs += jobs;
  stats.master_dispatch_seconds = dispatch_t.total_seconds();
  stats.master_merge_seconds = merge_t.total_seconds();
  stats.mean_partitions_per_query =
      nq ? double(stats.total_jobs) / double(nq) : 0.0;
}

void DistributedAnnEngine::worker_search_owner(mpi::Comm& world, std::size_t k) {
  const std::size_t P = config_.n_workers;
  const auto& tree = *router_;  // shared VP tree (replicated in the paper)
  // Owner duties: receive my share of the batch, then act as the master of
  // those queries — route, dispatch, merge — and forward each final answer
  // to rank 0. No replication: the paper notes this strategy "does not lend
  // itself to be optimized for load balancing".
  worker_search(world, nullptr, [&](DoneNotice& notice) {
    mpi::Message batch = world.recv(0, kTagOwnerBatch);
    BinaryReader rd(batch.payload);
    ANNSIM_CHECK(rd.read<std::uint32_t>() == std::uint32_t(k));
    const auto ef = rd.read<std::uint32_t>();
    const auto qids = rd.read_vector<std::size_t>();
    const data::Dataset mine = unpack_dataset(rd.read_vector<std::byte>(), tree.dim());

    data::KnnResults answers(qids.size());
    SearchStats mine_stats;
    mine_stats.coverage.resize(qids.size());
    std::vector<char> alive(P, 1);
    Round round{world, mine, k, /*replication=*/1, microseconds(0), alive,
                [this](std::size_t w, PartitionId d) { return workers_[w].count(d) != 0; },
                answers, mine_stats,
                [&](std::size_t i, const std::vector<Neighbor>& nb, const QueryCoverage&) {
                  LocalResult r;
                  r.query_id = std::uint32_t(qids[i]);
                  r.neighbors = nb;
                  (void)world.isend(0, kTagResult, encode_local_result(r));
                }};
    PhaseTimer route_t;
    for (std::size_t i = 0; i < qids.size(); ++i) {
      route_t.start();
      const auto plan = tree.route_topk(mine.row(i), std::min(config_.n_probe, P));
      route_t.stop();
      round.add_query(plan.partitions, ef);
    }
    MessageSink sink(qids.size(), k);
    round.collect(sink, /*finalize=*/true);
    notice.route_seconds = route_t.total_seconds();
  });
}

}  // namespace annsim::core
