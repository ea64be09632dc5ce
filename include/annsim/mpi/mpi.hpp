#pragma once
/// \file mpi.hpp
/// \brief In-process simulated MPI runtime (threads-as-ranks).
///
/// The paper's system is a hybrid MPI+OpenMP code on a Cray XC40. This
/// workspace has no MPI implementation, so — per the reproduction's
/// substitution rule — we provide a faithful in-process runtime exposing the
/// primitives the paper names:
///
///  * nonblocking point-to-point: `isend` / `irecv` / `Request::test` /
///    `Request::wait` / `Request::cancel` (Algorithms 3–4 are written
///    directly against these),
///  * collectives: `barrier`, `bcast`, `gather`, `scatter`, `alltoallv`
///    (Algorithm 2 shuffles partitions with MPI_Alltoallv), `allreduce`,
///  * communicator splitting (`split`) — the distributed VP-tree construction
///    recurses on halves of the process set,
///  * one-sided RMA windows with passive-target shared locks and atomic
///    `get_accumulate` (§IV-C1, Fig 2).
///
/// Semantics preserved from MPI: per-(source,comm) FIFO message ordering,
/// tag/source matching with wildcards, non-overtaking matching, collective
/// calls made in the same order by every member, and atomicity of
/// get_accumulate at the target. Each rank runs as one OS thread; payloads
/// are copied on send, never shared. The calling thread of Runtime::run is
/// rank 0, and the other ranks borrow parked threads (common/thread_cohort.hpp)
/// that outlive the run, the way an MPI process outlives one batch.
///
/// The runtime also keeps per-rank traffic counters (messages/bytes by
/// class) that the discrete-event performance model consumes.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "annsim/check/check.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/common/types.hpp"
#include "annsim/mpi/fault.hpp"

namespace annsim::mpi {

class ScheduleController;  // schedule.hpp — controlled scheduling (explore)

inline constexpr int kAnySource = -1;
using Tag = std::int32_t;
inline constexpr Tag kAnyTag = -1;

/// A received message.
struct Message {
  int source = kAnySource;  ///< sender's rank within the communicator
  Tag tag = kAnyTag;
  std::vector<std::byte> payload;
};

/// Per-rank traffic counters (cumulative).
struct TrafficStats {
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t rma_ops = 0;
  std::uint64_t rma_bytes = 0;
  std::uint64_t collective_ops = 0;
  std::uint64_t collective_bytes = 0;

  TrafficStats& operator+=(const TrafficStats& o) noexcept {
    p2p_messages += o.p2p_messages;
    p2p_bytes += o.p2p_bytes;
    rma_ops += o.rma_ops;
    rma_bytes += o.rma_bytes;
    collective_ops += o.collective_ops;
    collective_bytes += o.collective_bytes;
    return *this;
  }
};

namespace detail {
struct RuntimeState;
struct RecvState;
struct WindowState;
}  // namespace detail

/// Handle for a nonblocking operation (MPI_Request).
class Request {
 public:
  Request() = default;

  /// True if this handle refers to an operation.
  [[nodiscard]] bool valid() const noexcept;

  /// Nonblocking completion check (MPI_Test).
  [[nodiscard]] bool test();

  /// Block until complete (MPI_Wait).
  void wait();

  /// Bounded wait: true when the operation completed within `timeout` (its
  /// message can be taken), false on timeout or cancellation. A timed-out
  /// request stays posted — the caller may wait again or cancel() it. This is
  /// the primitive honest MPI codes need to survive a silent peer: a master
  /// waiting on a dead worker gets `false` instead of hanging forever.
  [[nodiscard]] bool wait_for(std::chrono::microseconds timeout);

  /// Cancel a pending receive (MPI_Cancel); returns false if the operation
  /// already completed (its message must then be taken).
  bool cancel();

  /// Retrieve the message of a completed receive (empty Message for sends).
  [[nodiscard]] Message take();

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RecvState> state);
  std::shared_ptr<detail::RecvState> state_;  ///< null => completed send
};

/// One-sided RMA window (MPI_Win). Created collectively; each rank exposes a
/// local buffer (possibly empty). Access requires a passive-target lock
/// (shared mode), matching the paper's MPI_Win_lock(SHARED) usage.
class Window {
 public:
  /// Merge operation applied atomically at the target during get_accumulate:
  /// reads+modifies the target region in place, given the origin data.
  using MergeOp =
      std::function<void(std::span<std::byte> target_region,
                         std::span<const std::byte> origin_data)>;

  Window() = default;

  /// Begin a passive-target access epoch at `target` (shared lock).
  void lock_shared(int target);
  /// End the access epoch at `target`.
  void unlock(int target);

  /// MPI_Put: copy `data` into the target's buffer at `offset`.
  void put(int target, std::size_t offset, std::span<const std::byte> data);

  /// MPI_Get: copy `len` bytes from the target's buffer at `offset`.
  [[nodiscard]] std::vector<std::byte> get(int target, std::size_t offset,
                                           std::size_t len);

  /// MPI_Get_accumulate with a user merge op: atomically fetch the previous
  /// contents of the target region (returned via `prev_out` if non-null) and
  /// merge `origin_data` into it. This is the atomic remote read-update the
  /// workers use to fold local k-NN results into the master's buffer.
  void get_accumulate(int target, std::size_t offset,
                      std::span<const std::byte> origin_data, const MergeOp& op,
                      std::vector<std::byte>* prev_out = nullptr);

  /// This rank's exposed region.
  [[nodiscard]] std::span<std::byte> local_data();
  [[nodiscard]] std::size_t local_size() const;

 private:
  friend class Comm;
  Window(std::shared_ptr<detail::WindowState> state, int my_rank);
  std::shared_ptr<detail::WindowState> state_;
  int my_rank_ = -1;
};

/// A communicator: an ordered group of ranks with isolated message matching.
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return my_index_; }
  [[nodiscard]] int size() const noexcept { return int(members_.size()); }

  // --- point-to-point (user tags must be >= 0) ---
  void send(int dest, Tag tag, std::span<const std::byte> payload);
  Request isend(int dest, Tag tag, std::span<const std::byte> payload);
  [[nodiscard]] Message recv(int source = kAnySource, Tag tag = kAnyTag);
  /// recv with a deadline: `std::nullopt` if no matching message arrived
  /// within `timeout` (the posted receive is cancelled — a later message is
  /// NOT consumed). Never hangs on a dead peer.
  [[nodiscard]] std::optional<Message> recv_for(int source, Tag tag,
                                                std::chrono::microseconds timeout);
  [[nodiscard]] Request irecv(int source = kAnySource, Tag tag = kAnyTag);
  /// Post a receive matching any tag in `tags` (each >= 0, non-empty). The
  /// safe alternative to a kAnyTag wildcard: a loop that owns several tags
  /// names exactly those, so a message on any *other* tag — present or added
  /// later — can never be swallowed by the wrong code path. The matched tag
  /// is reported in the taken Message.
  [[nodiscard]] Request irecv_tags(int source, std::vector<Tag> tags);
  /// Is a matching message waiting? (MPI_Iprobe)
  [[nodiscard]] bool iprobe(int source = kAnySource, Tag tag = kAnyTag);

  // --- control-plane point-to-point ---
  /// Like send/isend, but exempt from the checker's reserved-tag rule
  /// (check::Rule::kReservedTagSend). Use at the few call sites that
  /// legitimately emit control-plane traffic (EOQ, heartbeats, ...); plain
  /// send/isend on a tag listed in CheckOptions::reserved_tags is flagged.
  void send_reserved(int dest, Tag tag, std::span<const std::byte> payload);
  Request isend_reserved(int dest, Tag tag, std::span<const std::byte> payload);

  // --- collectives (every member must call, in the same order) ---
  void barrier();
  /// Root's buffer is returned on every rank.
  [[nodiscard]] std::vector<std::byte> bcast(std::span<const std::byte> buf, int root);
  /// Returns one buffer per rank at root (empty vector elsewhere).
  [[nodiscard]] std::vector<std::vector<std::byte>> gather(
      std::span<const std::byte> buf, int root);
  /// Root supplies size() buffers; each rank gets its own.
  [[nodiscard]] std::vector<std::byte> scatter(
      const std::vector<std::vector<std::byte>>& bufs, int root);
  /// Personalized all-to-all with per-destination buffers (MPI_Alltoallv).
  [[nodiscard]] std::vector<std::vector<std::byte>> alltoallv(
      const std::vector<std::vector<std::byte>>& send_bufs);

  /// Partition this communicator by color (MPI_Comm_split, key = rank).
  [[nodiscard]] Comm split(int color) const;

  /// Collectively create an RMA window; this rank exposes `local_bytes`.
  [[nodiscard]] Window create_window(std::size_t local_bytes);

  // --- typed convenience wrappers ---
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dest, Tag tag, const T& v) {
    send(dest, tag, std::as_bytes(std::span<const T, 1>(&v, 1)));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T bcast_value(T v, int root) {
    auto bytes = bcast(std::as_bytes(std::span<const T, 1>(&v, 1)), root);
    T out;
    std::memcpy(&out, bytes.data(), sizeof(T));
    return out;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> gather_values(const T& v, int root) {
    auto bufs = gather(std::as_bytes(std::span<const T, 1>(&v, 1)), root);
    std::vector<T> out;
    out.reserve(bufs.size());
    for (auto& b : bufs) {
      T x;
      std::memcpy(&x, b.data(), sizeof(T));
      out.push_back(x);
    }
    return out;
  }

  /// Reduce with a binary op on a trivially-copyable value; result on all.
  template <typename T, typename F>
    requires std::is_trivially_copyable_v<T>
  T allreduce(T v, F op) {
    auto all = gather_values(v, 0);
    T acc = v;
    if (rank() == 0) {
      acc = all[0];
      for (std::size_t i = 1; i < all.size(); ++i) acc = op(acc, all[i]);
    }
    return bcast_value(acc, 0);
  }

  /// Traffic counters of this rank (cumulative across communicators).
  [[nodiscard]] TrafficStats traffic() const;

 private:
  friend class Runtime;
  Comm(std::shared_ptr<detail::RuntimeState> rt, std::uint64_t comm_id,
       std::vector<int> members, int my_index);

  /// Shared implementation of all sends. `internal` marks collective traffic
  /// (negative tags allowed, never fault-gated); `reserved_ok` suppresses the
  /// checker's reserved-tag rule (send_reserved / isend_reserved).
  Request isend_impl(int dest, Tag tag, std::span<const std::byte> payload,
                     bool internal, bool reserved_ok);
  /// Blocking receive on an internal collective tag — bypasses the
  /// user-facing tag rules but keeps the checker's deadlock instrumentation.
  Message recv_internal_(int source, Tag tag);

  std::shared_ptr<detail::RuntimeState> rt_;
  std::uint64_t comm_id_ = 0;
  std::vector<int> members_;  ///< global rank of each communicator index
  int my_index_ = -1;
};

/// Owns the per-run state of the ranks: mailboxes, windows, traffic counters,
/// the checker and the schedule controller. `run` executes `rank_main(comm)`
/// once per rank, rank 0 on the calling thread and the others on borrowed
/// parked threads, and returns when all ranks have; the first exception
/// thrown by any rank is rethrown to the caller.
class Runtime {
 public:
  explicit Runtime(int n_ranks);
  /// Construct with a fault schedule (see fault.hpp). An inert plan
  /// (enabled() == false) behaves exactly like the plain constructor.
  /// Injector state (op counters, death flags) persists across run() calls.
  Runtime(int n_ranks, const FaultPlan& plan);
  /// Construct with a pre-existing injector so fault state (death flags, op
  /// counters, step clock) survives *across* Runtimes — the engine creates a
  /// fresh Runtime per search batch, but a worker declared dead in batch 3
  /// must still be dead in batch 4 unless somebody revived it. A null
  /// injector behaves exactly like the plain constructor.
  Runtime(int n_ranks, std::shared_ptr<FaultInjector> injector);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] int size() const noexcept;

  void run(const std::function<void(Comm&)>& rank_main);

  /// Sum of all ranks' traffic counters (valid after run()).
  [[nodiscard]] TrafficStats total_traffic() const;
  /// One entry per rank.
  [[nodiscard]] std::vector<TrafficStats> per_rank_traffic() const;

  // --- controlled scheduling (annsim::explore) ---
  /// Install a schedule controller (see mpi/schedule.hpp). While the
  /// controller is armed, run() serializes its rank threads onto the
  /// controller's scheduler: every message delivery, bounded-wait timeout,
  /// and one-sided op becomes an explicit choice point, making the whole
  /// execution deterministic and replayable. With the controller disarmed
  /// (or null) behavior is unchanged. Call before run().
  void set_schedule(std::shared_ptr<ScheduleController> schedule);
  [[nodiscard]] std::shared_ptr<ScheduleController> schedule() const noexcept;

  /// The installed fault injector, or nullptr when constructed without a
  /// plan (or with an inert one). Use it to advance the logical step clock
  /// or inspect which ranks have died.
  [[nodiscard]] FaultInjector* fault_injector() noexcept;
  /// Ranks whose kill rule fired (empty without fault injection).
  [[nodiscard]] std::vector<int> failed_ranks() const;

  // --- usage-correctness checking (annsim::check) ---
  /// Install (or reconfigure) the MPI usage verifier. The environment is
  /// folded in: ANNSIM_MPI_CHECK=1 force-enables even if `opts.enabled` is
  /// false, and ANNSIM_MPI_CHECK_FATAL (when set) overrides `opts.fatal`.
  /// With the checker off this is free; with it on, every run() finalizes
  /// with a leak/unmatched-send/epoch scan and — when `fatal` — throws
  /// annsim::Error carrying the report text if new violations were found.
  /// Call before run(); reconfiguring resets nothing but the options.
  void configure_check(const check::CheckOptions& opts);
  /// True when a verifier is installed (explicitly or via the environment).
  [[nodiscard]] bool check_enabled() const noexcept;
  /// Snapshot of the cumulative report (all run() calls on this Runtime).
  [[nodiscard]] check::CheckReport check_report() const;

 private:
  std::shared_ptr<detail::RuntimeState> state_;
};

}  // namespace annsim::mpi
