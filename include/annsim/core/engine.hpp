#pragma once
/// \file engine.hpp
/// \brief The paper's system: a distributed approximate k-NN engine with
/// VP-tree partitioning, per-partition HNSW indexes, master-worker batched
/// search (Algorithms 3-4), one-sided result accumulation (§IV-C1),
/// replication-based load balancing (Algorithm 5), and the multiple-owner
/// dispatch variant (§IV).
///
/// The engine runs SPMD phases on the simulated MPI runtime with
/// `n_workers + 1` ranks (rank 0 = master process; worker w = rank w+1, and
/// partition w lives on worker w after construction). Because the runtime is
/// threads-as-ranks, per-worker state (partitions, local indexes) persists in
/// engine-owned storage between the build phase and search phases.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "annsim/common/serialize.hpp"
#include "annsim/core/local_index.hpp"
#include "annsim/core/partitioner.hpp"
#include "annsim/data/dataset.hpp"
#include "annsim/data/ground_truth.hpp"
#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/recovery/checkpoint.hpp"
#include "annsim/recovery/health.hpp"
#include "annsim/recovery/write_log.hpp"
#include "annsim/vptree/partition_vp_tree.hpp"

namespace annsim::core {

struct DoneNotice;  // protocol.hpp
struct SlotLayout;  // protocol.hpp
struct WriteAck;    // protocol.hpp
struct WriteOrder;  // protocol.hpp

/// Who computes F(q) and dispatches jobs (§IV discusses both).
enum class DispatchStrategy {
  kMasterWorker,   ///< master routes every query (Algorithms 3 & 5)
  kMultipleOwner,  ///< queries hashed to owner workers, each owning routing
};

struct EngineConfig {
  std::size_t n_workers = 8;   ///< P processing cores (power of two)
  std::size_t replication = 1; ///< r; 1 = no replication (baseline)
  std::size_t n_probe = 4;     ///< |F(q)| in single-pass routing mode
  bool one_sided = true;       ///< RMA result accumulation vs two-sided sends
  bool exact_routing = false;  ///< two-phase F(q): nearest first, then the
                               ///< exact ball at the observed k-th distance
  DispatchStrategy strategy = DispatchStrategy::kMasterWorker;
  std::size_t threads_per_worker = 2;  ///< Algorithm 4's thread team size
  /// Build each worker's local index with threads_per_worker threads (the
  /// paper's multi-threaded HNSW construction). Off by default because
  /// parallel insertion order makes the graph — and therefore approximate
  /// results — run-to-run nondeterministic.
  bool parallel_local_build = false;

  /// Per-partition search algorithm (§VI: "any algorithm can be used for
  /// local indexing"). kBruteForce + exact_routing = exact distributed k-NN.
  /// The default kHnsw is the segmented index, so it accepts writes; the
  /// other kinds are read-only.
  LocalIndexKind local_index = LocalIndexKind::kHnsw;
  hnsw::HnswParams hnsw;
  pq::IvfPqParams ivfpq;  ///< used when local_index == kIvfPq
  /// Mutable-delta capacity per replica (local_index == kHnsw): how many
  /// streamed inserts a partition absorbs before compact() must re-freeze.
  std::size_t segment_delta_capacity = 1024;
  /// local_index == kHnsw only: frozen segments store SQ8 code rows
  /// (1 byte/dim) plus an exact float re-rank cache instead of full floats.
  /// ~4x smaller resident partitions and checkpoints; L2 / InnerProduct only.
  bool quantize_frozen = false;
  /// Fraction of each quantized segment's rows kept as exact floats for
  /// re-ranking (the recall-recovery knob; ~0.01-0.05 is the useful range).
  double float_cache_fraction = 0.02;
  PartitionerConfig partitioner;
  std::uint64_t seed = 123;

  // ---- fault tolerance (see fault.hpp for the failure model) ----
  /// Fault schedule injected into the search runtime (chaos runs). Runtime
  /// ranks: 0 is the master, worker w is rank w + 1 — kill rules must name
  /// worker ranks. An enabled plan requires `result_timeout_ms > 0`, or the
  /// master would hang waiting on a silent worker. The engine marks the
  /// End-of-Queries tag reliable (control plane): termination always reaches
  /// live workers even under `drop_probability`, so a chaos run can degrade
  /// results but never hang the batch. `KillRule::at_step` triggers on the
  /// engine's query-dispatch clock: the master advances the runtime step once
  /// per query as it begins dispatching that query's jobs, so `at_step = s`
  /// kills the rank from (roughly) the s-th dispatched query onward.
  mpi::FaultPlan fault;
  /// Failure-detection deadline: a worker with outstanding jobs that shows
  /// no progress for this long is declared dead — not just for the batch but
  /// until heal() revives it — and its jobs fail over to live replicas. So
  /// is a worker whose liveness beacon, sent every `result_timeout_ms / 4`
  /// (at least 100 µs) on a reliable control-plane tag, goes silent this
  /// long, even with no outstanding jobs.
  /// Detection is only this deadline on the one search loop. 0 (default)
  /// makes it infinite: blocking waits, no heartbeats, nothing fails over,
  /// and fault-free results are the same bit for bit either way. Detection
  /// supports master-worker single-pass routing only.
  double result_timeout_ms = 0.0;

  // ---- self-healing (see recovery/) ----
  /// Durable per-partition snapshot directory. Non-empty: build() (and
  /// load()) checkpoint every partition, and heal() restores a revived
  /// worker's replicas from disk instead of streaming them from peers.
  /// Empty (default): no checkpoints; heal() streams from surviving
  /// replicas.
  std::string checkpoint_dir;
  /// Per-worker write-ahead-log directory (`<wal_dir>/worker_<w>/`).
  /// Non-empty: every insert/delete is CRC-framed and fsynced to the
  /// worker's log *before* that worker acks the round on kTagWriteAck, so an
  /// acked write survives any crash — heal() and load() replay the log tail
  /// past each checkpoint's LSN watermark. Empty (default): no WAL; writes
  /// are durable only as of the last checkpoint.
  std::string wal_dir;
  /// Group commit: one fsync per worker per write round instead of one per
  /// record. Same durability contract (the ack waits for the sync either
  /// way); this is the knob that keeps the mutate-bench p999 budget intact.
  bool wal_group_commit = true;
  /// Checkpoint every Nth write round (1 = every round, the pre-WAL
  /// behavior). With a WAL the tail between checkpoints is replayable, so
  /// larger values trade checkpoint I/O for replay length.
  std::size_t checkpoint_every_rounds = 1;

  // ---- usage-correctness checking (annsim::check) ----
  /// Run every engine runtime (build, search batches, write rounds, heal)
  /// under the MPI usage verifier. ANNSIM_MPI_CHECK=1 in the environment
  /// force-enables this too. The engine declares its control-plane tags (EOQ,
  /// done, heartbeat, write, write ack) reserved and, when failure detection
  /// or the fault injector is armed, marks the by-design-abandonable tags
  /// best-effort — see DESIGN.md §4.9.
  bool mpi_check = false;
  /// Checked runtimes throw on violations (fatal). Set false to collect
  /// and inspect `DistributedAnnEngine::check_report()` instead.
  bool check_fatal = true;
};

struct BuildStats {
  double total_seconds = 0.0;
  double vp_tree_seconds = 0.0;      ///< max across workers
  double hnsw_seconds = 0.0;         ///< max across workers
  double replication_seconds = 0.0;  ///< max across workers
  std::vector<std::size_t> partition_sizes;
};

/// How much of a query's routing plan was actually searched. Equal counts
/// mean the full plan was covered; `searched < planned` marks a degraded
/// result (a partition lost all its live replicas mid-batch).
struct QueryCoverage {
  std::uint32_t partitions_searched = 0;
  std::uint32_t partitions_planned = 0;

  [[nodiscard]] bool degraded() const noexcept {
    return partitions_searched < partitions_planned;
  }
};

struct SearchStats {
  double total_seconds = 0.0;
  double master_route_seconds = 0.0;     ///< F(q) computation at master
  double master_dispatch_seconds = 0.0;  ///< isend loop at master
  double master_merge_seconds = 0.0;     ///< result merging at master
  double worker_compute_seconds = 0.0;   ///< sum over workers: local searches
  double worker_comm_seconds = 0.0;      ///< sum over workers: result returns
  std::vector<std::uint64_t> jobs_per_worker;  ///< Fig 4(b) raw data
  std::uint64_t total_jobs = 0;
  double mean_partitions_per_query = 0.0;
  mpi::TrafficStats traffic;  ///< runtime traffic during this search

  // ---- fault tolerance (retries/failovers/workers_failed are nonzero only
  // with result_timeout_ms > 0) ----
  std::uint64_t retries = 0;          ///< jobs re-dispatched after a death
  std::uint64_t failovers = 0;        ///< retried jobs a live replica completed
  /// Workers *newly* declared dead this batch. A worker already dead in the
  /// engine's ClusterHealth when the batch started is skipped at dispatch
  /// and not counted again — the health record is the single source of
  /// truth, so lifetime deaths are `health().workers[w].deaths`, not a sum
  /// of per-batch counters.
  std::uint64_t workers_failed = 0;
  std::uint64_t degraded_queries = 0; ///< queries with partial coverage
  /// Per-query coverage (master-worker batches; detection on or off).
  std::vector<QueryCoverage> coverage;
};

/// Outcome of one streaming write round (engine insert()/remove()).
/// Counters are summed across workers, so with replication r a row that
/// reached every replica contributes r to `inserted_replicas`.
struct WriteStats {
  /// Global ids assigned to the inserted rows, in input order. Ids come from
  /// a monotone stream counter that starts past the build corpus, so they
  /// never collide with existing ids.
  std::vector<GlobalId> assigned_ids;
  std::uint64_t inserted_replicas = 0;  ///< per-replica insert absorptions
  std::uint64_t erased_replicas = 0;    ///< per-replica tombstones placed
  /// Rows whose owning partition had no live replica at send time — the
  /// write is lost (the id is still consumed). Nonzero only mid-outage.
  std::uint64_t dropped_rows = 0;
  std::uint64_t max_delta_fill = 0;  ///< fullest delta seen in the acks
  /// Parallel to assigned_ids: true iff at least one worker the row was
  /// shipped to acked the round (ack ⇒ WAL-durable when a wal_dir is set).
  /// Rows acked by nobody must be treated as lost by durability-gating
  /// callers; rows in a round whose every target died mid-commit stay false.
  std::vector<char> row_acked;
  /// True iff every targeted worker acked this round. With a WAL, false
  /// means some log commit did not complete — the unacked rows may or may
  /// not survive a crash.
  bool all_acked = true;
};

/// Aggregate quantized-tier (SQ8) footprint across all hosted replicas.
/// Meaningful when local_index == kHnsw with quantize_frozen; all zero
/// otherwise. Totals double-count with replication, like partition_sizes().
struct CompressionStats {
  std::size_t quant_rows = 0;            ///< rows stored as SQ8 codes
  std::size_t quant_resident_bytes = 0;  ///< codes + re-rank caches + codebooks
  std::size_t quant_float_bytes = 0;     ///< full-float equivalent footprint
  std::size_t quant_cached_rows = 0;     ///< rows with an exact float copy
  std::uint64_t rerank_exact = 0;        ///< candidates re-scored exactly
  std::uint64_t rerank_coded = 0;        ///< candidates kept at SQ8 distance
  /// quant_float_bytes / quant_resident_bytes (0 when nothing is quantized).
  [[nodiscard]] double compression_ratio() const noexcept {
    return quant_resident_bytes == 0
               ? 0.0
               : double(quant_float_bytes) / double(quant_resident_bytes);
  }
};

/// Per-query completion hook for batched search: invoked by the master as
/// soon as query `qid`'s final merged result is known (before `search`
/// returns). In two-sided mode this fires as each query's last partial
/// arrives; in one-sided mode all slots finalize together at the end of the
/// batch epoch. `coverage.degraded()` flags a partial result (possible only
/// under failure detection). Runs on a runtime-internal thread — keep it
/// cheap, and synchronize any state it shares with the caller.
using QueryDoneFn =
    std::function<void(std::size_t qid, const std::vector<Neighbor>& result,
                       const QueryCoverage& coverage)>;

/// Per-query search-effort override, the engine half of brownout: under
/// overload the serving plane shrinks a query's beam width and fan-out
/// instead of shedding it. Both fields are caps — they can only reduce work
/// relative to the batch-level `ef` / `n_probe`, never raise the plan's
/// fan-out — and 0 means "no override" so a default-constructed entry is
/// full effort.
struct EffortOverride {
  std::uint32_t ef = 0;          ///< per-partition beam width; 0 = batch ef
  std::uint32_t max_probes = 0;  ///< cap on |F(q)|; 0 = config n_probe
};

/// Throws annsim::Error with a field-specific message when `config` is
/// unusable (zero workers/probes, replication outside [1, n_workers], ...).
/// Called from the engine constructor and again from build().
void validate_engine_config(const EngineConfig& config);

class DistributedAnnEngine {
 public:
  /// `base` is referenced, not owned, and must outlive the engine.
  DistributedAnnEngine(const data::Dataset* base, EngineConfig config);
  ~DistributedAnnEngine();

  DistributedAnnEngine(const DistributedAnnEngine&) = delete;
  DistributedAnnEngine& operator=(const DistributedAnnEngine&) = delete;
  DistributedAnnEngine(DistributedAnnEngine&&) noexcept = default;
  DistributedAnnEngine& operator=(DistributedAnnEngine&&) noexcept = default;

  /// Distributed construction: VP-tree partitioning (Algorithms 1-2), local
  /// HNSW builds, and partition replication.
  void build();

  [[nodiscard]] bool built() const noexcept { return router_.has_value(); }
  [[nodiscard]] const BuildStats& build_stats() const noexcept { return build_stats_; }

  /// Batched k-NN search (Algorithms 3-5). `ef` = 0 uses the index default.
  /// `on_query_done`, when set, reports each query's completion to online
  /// callers (the serving plane) before the batch as a whole returns.
  /// `efforts`, when non-empty, must hold one EffortOverride per query and
  /// caps that query's beam width / partition fan-out (brownout search;
  /// master-worker dispatch only).
  [[nodiscard]] data::KnnResults search(const data::Dataset& queries,
                                        std::size_t k, std::size_t ef = 0,
                                        SearchStats* stats = nullptr,
                                        const QueryDoneFn& on_query_done = {},
                                        std::span<const EffortOverride> efforts = {});

  // ---- streaming writes (local_index == kHnsw; read-only kinds throw) ----

  /// Insert a batch of vectors into the live index. The master routes each
  /// row to its nearest partition (same VP-tree as queries) and ships it to
  /// every live replica of that partition in one write round; the replicas
  /// absorb it into their mutable delta. Returns the assigned
  /// global ids — immediately searchable. Thread-safe against concurrent
  /// search() batches; write rounds themselves serialize.
  WriteStats insert(const data::Dataset& rows);

  /// Delete by global id: broadcast to every live worker, which tombstones
  /// the id on each hosted replica that holds it. Deleted ids stop appearing
  /// in results immediately; space is reclaimed by compact().
  WriteStats remove(std::span<const GlobalId> ids);

  /// Re-freeze every replica's delta + segments into one frozen segment
  /// (hot-swapped under the searches). Returns the number of replica
  /// compactions that did work. Safe to run from a background thread while
  /// search() batches are in flight.
  std::uint64_t compact();

  /// Fullest mutable delta across all hosted replicas — the serving plane's
  /// compaction trigger.
  [[nodiscard]] std::size_t max_delta_fill() const;

  /// Quantized-tier footprint summed over every hosted segmented replica.
  [[nodiscard]] CompressionStats compression_stats() const;

  /// The master's routing tree (valid after build()).
  [[nodiscard]] const vptree::PartitionVpTree& router() const;

  [[nodiscard]] std::vector<std::size_t> partition_sizes() const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Per-query routing plans — the F(q) the master would compute. Exposed so
  /// the discrete-event performance simulator replays the *identical*
  /// dispatch decisions at scale.
  [[nodiscard]] std::vector<std::vector<PartitionId>> plan_queries(
      const data::Dataset& queries) const;

  /// Persist the built index (router + every partition's data and local
  /// index) to one file; `load` restores a search-ready engine without the
  /// original corpus. The engine file does not record a checkpoint
  /// directory; pass `checkpoint_dir` to re-arm durable snapshots on the
  /// loaded engine (it checkpoints every partition immediately). Pass
  /// `wal_dir` to re-attach the write-ahead logs: the logs are recovered
  /// (torn tails truncated) and any records past the engine file's LSN are
  /// replayed into the segmented replicas before the engine is returned —
  /// the crash-restart path that makes every acked write reappear.
  void save(const std::string& path) const;
  static DistributedAnnEngine load(const std::string& path,
                                   const std::string& checkpoint_dir = "",
                                   const std::string& wal_dir = "");

  /// Attach per-worker write-ahead logs under `dir` (see
  /// EngineConfig::wal_dir). Existing logs are recovered and replayed into
  /// the live replicas, so calling this on a freshly built engine is a
  /// no-op beyond arming durability. Requires local_index == kHnsw.
  void enable_wal(const std::string& dir, bool group_commit = true);

  /// Is `id` present (and not tombstoned) in any hosted segmented replica?
  /// The WAL replay path uses this for idempotence; exposed because
  /// durability tests and benches want the same ground truth.
  [[nodiscard]] bool contains(GlobalId id) const;

  // ---- self-healing ----

  /// Per-worker liveness as tracked by the heartbeat/deadline monitor,
  /// persistent across search() batches. All-alive until a batch with
  /// failure detection armed observes a death.
  [[nodiscard]] const recovery::ClusterHealth& health() const noexcept {
    return health_;
  }
  /// Live copies of partition `p` (replicas hosted by alive workers).
  [[nodiscard]] std::size_t live_replicas(PartitionId p) const;
  /// Partitions whose live-copy count is below the configured replication
  /// factor, ascending. Non-empty means the cluster needs healing.
  [[nodiscard]] std::vector<PartitionId> under_replicated_partitions() const;

  /// Snapshot every partition into `config().checkpoint_dir` (no-op when
  /// empty). build() calls this automatically, as does load() when given a
  /// checkpoint directory; exposed so callers can re-checkpoint after
  /// healing.
  void save_checkpoints() const;

  /// Repair the cluster: revive every dead worker (clearing its fault-plan
  /// kill triggers) and restore its replicas — from the checkpoint store
  /// when one is configured, otherwise by streaming each partition from a
  /// surviving replica over the p2p data plane. Dispatch re-runs round-robin
  /// workgroup assignment naturally, so restored copies serve the very next
  /// batch. Safe to call with nothing to heal (reports zeros).
  recovery::HealReport heal();

  /// Cumulative annsim::check report across every runtime this engine ran
  /// (build, each search batch, heal). Empty unless checking is enabled via
  /// `EngineConfig::mpi_check` or ANNSIM_MPI_CHECK=1.
  [[nodiscard]] check::CheckReport check_report() const;

  /// Arm (or disarm) the MPI usage checker on every runtime this engine
  /// creates from now on. `fatal=false` accumulates violations into
  /// check_report() instead of throwing at runtime finalize — the mode the
  /// CLI benches use so a violation is reported once, at exit.
  void set_mpi_check(bool enabled, bool fatal = true) noexcept {
    config_.mpi_check = enabled;
    config_.check_fatal = fatal;
  }

  /// Install a schedule controller (annsim::explore) on every runtime this
  /// engine creates from now on: message deliveries, timed waits, and RMA
  /// ops route through its choice points, so an armed controller decides the
  /// interleaving. Pass nullptr to detach. Controlled runs require
  /// `threads_per_worker == 1` and `result_timeout_ms == 0` — every engine
  /// thread must be a tracked rank, or helper threads would race around the
  /// controller instead of being scheduled by it. Both are needed: with a
  /// finite deadline a worker runs its whole team on borrowed threads beside
  /// the rank thread's liveness beacon.
  void set_schedule(std::shared_ptr<mpi::ScheduleController> schedule) noexcept {
    schedule_ = std::move(schedule);
  }

 private:
  DistributedAnnEngine() = default;  // for load()

  struct Replica {
    // Heap-allocated so the index's dataset pointer stays valid when the
    // Replica moves into the worker store.
    std::unique_ptr<data::Dataset> data;
    std::unique_ptr<LocalIndex> index;
  };
  /// All replicas a worker hosts, keyed by partition id.
  using WorkerStore = std::map<PartitionId, Replica>;

  /// A replica travels as one record — partition id, dataset bytes, index
  /// bytes — over replication, peer-stream heal and the engine file alike.
  static void write_replica(BinaryWriter& w, PartitionId pid,
                            const Replica& rep);
  [[nodiscard]] std::pair<PartitionId, Replica> read_replica(
      BinaryReader& r, std::size_t dim) const;
  /// The one restore path: rebuild a replica of `dim`-wide rows from its
  /// dataset and index bytes (shipped, saved or checkpointed) under this
  /// engine's config.
  [[nodiscard]] Replica restore_replica(std::span<const std::byte> data_bytes,
                                        std::span<const std::byte> index_bytes,
                                        std::size_t dim) const;

  /// `slots` names the result transport for master and workers together:
  /// RMA accumulation into masked slots, or two-sided messages when null.
  void master_search(mpi::Comm& world, const data::Dataset& queries,
                     std::size_t k, std::size_t ef, const SlotLayout* slots,
                     data::KnnResults& results, SearchStats& stats,
                     const QueryDoneFn& on_query_done,
                     mpi::FaultInjector* fault, std::vector<char>& alive,
                     std::vector<std::uint64_t>& heartbeats,
                     std::span<const EffortOverride> efforts);
  void worker_search(mpi::Comm& world, const SlotLayout* slots,
                     const std::function<void(DoneNotice&)>& owner_duties = {});
  /// Lazily create (or return) the engine-owned fault injector shared by
  /// every search runtime, so death flags and op budgets persist across
  /// batches. Null when the config's fault plan is inert.
  std::shared_ptr<mpi::FaultInjector> shared_injector();
  /// The one way the engine runs an SPMD phase (build, search batch, write
  /// round, heal stream): a fresh n_workers + 1 rank runtime armed with
  /// `injector` (may be null), the schedule controller and — per config_ or
  /// the environment — the checker with the engine's reserved and
  /// best-effort tags. The phase's check report folds into check_report()
  /// whether `body` returns or throws. Returns the phase's traffic.
  mpi::TrafficStats run_phase(std::shared_ptr<mpi::FaultInjector> injector,
                              const std::function<void(mpi::Comm&)>& body);
  /// insert()/remove(): routes `rows` (when non-null) to their partitions'
  /// live workgroup members, sends `deletes` to every live worker, runs the
  /// write round and folds its acks into WriteStats.
  WriteStats apply_writes(const data::Dataset* rows,
                          std::span<const GlobalId> deletes);
  /// The write round of insert(), remove() and compact(): sends orders[w] to
  /// every worker flagged in `alive` on kTagWrite; each applies its order
  /// (rows, tombstones, round mark, compaction), commits its WAL once, then
  /// acks. A worker without an ack was not sent an order, or fell silent
  /// mid-round (died, or failed its WAL commit). Caller holds write_api.
  std::vector<std::optional<WriteAck>> write_round(
      const std::vector<WriteOrder>& orders, const std::vector<char>& alive);
  /// Liveness snapshot for the write plane, derived from the fault injector
  /// (not ClusterHealth, which belongs to the search plane's thread).
  std::vector<char> write_plane_alive(const mpi::FaultInjector* injector) const;
  /// Open (recovering if present) each worker's WAL under config_.wal_dir.
  /// No-op when wal_dir is empty or the logs are already open.
  void open_wals();
  /// Replay worker `w`'s WAL records with lsn > `after_lsn` into its hosted
  /// replicas (idempotent: inserts skip ids already present). When
  /// `only_partition` is set, records for other partitions are skipped —
  /// the per-replica filter heal() uses after a checkpoint restore. Returns
  /// records applied. Caller holds the topology lock.
  std::size_t replay_wal_into_worker(
      std::size_t w, std::uint64_t after_lsn,
      std::optional<PartitionId> only_partition = std::nullopt);
  void master_search_owner(mpi::Comm& world, const data::Dataset& queries,
                           std::size_t k, std::size_t ef,
                           data::KnnResults& results, SearchStats& stats,
                           const QueryDoneFn& on_query_done);
  void worker_search_owner(mpi::Comm& world, std::size_t k);

  const data::Dataset* base_ = nullptr;  ///< null after load()
  EngineConfig config_;
  std::optional<vptree::PartitionVpTree> router_;
  std::vector<WorkerStore> workers_;  ///< indexed by worker id (0..P-1)
  BuildStats build_stats_;
  /// Fault state shared across search runtimes (batches): a rank killed in
  /// batch n stays dead in batch n+1 until heal() revives it.
  std::shared_ptr<mpi::FaultInjector> injector_;
  /// Schedule controller installed on every engine runtime (null = free-run).
  std::shared_ptr<mpi::ScheduleController> schedule_;
  recovery::ClusterHealth health_;  ///< persistent liveness record
  check::CheckReport check_report_;  ///< merged across engine runtimes
  /// Next global id handed to a streamed insert. Starts one past the largest
  /// build-corpus id and never reuses a value, even across save/load.
  GlobalId next_stream_id_ = 0;
  /// Next write-ahead-log sequence number the master will assign. Global and
  /// monotone across all workers (every replica of one row logs the same
  /// LSN), persisted by save(), advanced past the replayed tail by load().
  std::uint64_t next_lsn_ = 1;
  /// Per-worker write-ahead logs (empty until wal_dir is configured).
  /// Indexed by worker id, parallel to workers_.
  std::vector<std::unique_ptr<recovery::WriteLog>> wals_;
  /// Highest LSN issued against each partition (deletes broadcast, so they
  /// bump every partition). heal() compares a revived worker's synced log
  /// position against this to decide whether its own WAL tail is current
  /// enough to replay, or whether the replica must stream from a peer that
  /// saw the writes the dead worker missed.
  std::vector<std::uint64_t> partition_last_lsn_;
  /// Write rounds since the last checkpoint (drives checkpoint_every_rounds).
  std::size_t rounds_since_checkpoint_ = 0;

  /// Synchronization for concurrent search / write / compact / heal.
  /// Heap-allocated so the engine stays movable (load() returns by value).
  ///   - topology: shared while a runtime reads `workers_` (search, write,
  ///     compact rounds), exclusive when the stores mutate (post-batch death
  ///     fold clearing a dead worker's store, heal() restoring it).
  ///   - write_api: serializes insert/remove/compact rounds end to end
  ///     (protects next_stream_id_ and keeps one write round in flight).
  ///   - check / injector: guard check_report_ merges and lazy injector
  ///     creation, which writes and searches may race on.
  struct Sync {
    std::shared_mutex topology;
    std::mutex write_api;
    std::mutex check;
    std::mutex injector;
    std::mutex checkpoint;
  };
  std::unique_ptr<Sync> sync_ = std::make_unique<Sync>();
};

}  // namespace annsim::core
