#include "annsim/explore/scenario.hpp"

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "annsim/check/check.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/recovery/write_log.hpp"

namespace annsim::explore {

namespace fs = std::filesystem;

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::kWrite: return "write";
    case Mix::kQuery: return "query";
    case Mix::kCompact: return "compact";
    case Mix::kHeal: return "heal";
    case Mix::kMixed: return "mixed";
  }
  return "?";
}

std::optional<Mix> parse_mix(const std::string& name) {
  if (name == "write") return Mix::kWrite;
  if (name == "query") return Mix::kQuery;
  if (name == "compact") return Mix::kCompact;
  if (name == "heal") return Mix::kHeal;
  if (name == "mixed") return Mix::kMixed;
  return std::nullopt;
}

namespace {

/// Collects oracle failures into one growing message.
class Oracle {
 public:
  template <typename... Parts>
  void expect(bool ok, const Parts&... parts) {
    if (ok) return;
    ++failures_;
    std::ostringstream os;
    (os << ... << parts);
    if (!message_.empty()) message_ += "; ";
    message_ += os.str();
  }
  [[nodiscard]] std::size_t failures() const { return failures_; }
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  std::size_t failures_ = 0;
  std::string message_;
};

/// A row we later try to delete can no longer be expected present: even a
/// partially-acked delete may have tombstoned some replicas.
void forget(std::vector<GlobalId>& ids, GlobalId id) {
  std::erase(ids, id);
}

/// Ids in `ws.assigned_ids` the engine acked (durable on >= 1 replica).
std::vector<GlobalId> acked_ids(const core::WriteStats& ws) {
  std::vector<GlobalId> out;
  for (std::size_t i = 0; i < ws.assigned_ids.size(); ++i) {
    if (i < ws.row_acked.size() && ws.row_acked[i]) {
      out.push_back(ws.assigned_ids[i]);
    }
  }
  return out;
}

bool identical_results(const data::KnnResults& a, const data::KnnResults& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) {
        return false;
      }
    }
  }
  return true;
}

/// Cross-replica WAL invariants, checked after the engine (and its open log
/// handles) are gone: every replica of one logical row logged the same LSN,
/// deletes land above the insert they tombstone, and each log's synced
/// watermark covers every record it holds.
void check_wals(Oracle& oracle, const std::string& wal_dir,
                std::size_t workers) {
  std::map<GlobalId, std::uint64_t> insert_lsn;   // id -> agreed LSN
  std::map<GlobalId, std::uint64_t> delete_lsn;   // id -> agreed LSN
  for (std::size_t w = 0; w < workers; ++w) {
    const std::string dir = wal_dir + "/worker_" + std::to_string(w);
    if (!fs::exists(dir)) continue;
    recovery::WriteLog log(dir);
    const auto records = log.read_tail(0);
    // (partition, id, lsn) triples must be unique within one log: the same
    // logical write landing twice would double-apply on replay.
    std::set<std::tuple<PartitionId, GlobalId, std::uint64_t>> seen;
    for (const auto& rec : records) {
      oracle.expect(rec.lsn <= log.last_synced_lsn(), "worker ", w,
                    " WAL holds lsn ", rec.lsn, " above its synced watermark ",
                    log.last_synced_lsn());
      if (rec.type == recovery::WalRecordType::kInsert) {
        oracle.expect(seen.emplace(rec.partition, rec.id, rec.lsn).second,
                      "worker ", w, " logged row ", rec.id, " (partition ",
                      rec.partition, ", lsn ", rec.lsn, ") twice");
        const auto [it, fresh] = insert_lsn.emplace(rec.id, rec.lsn);
        (void)fresh;
        oracle.expect(it->second == rec.lsn, "row ", rec.id,
                      " logged under lsn ", rec.lsn, " on worker ", w,
                      " but lsn ", it->second, " elsewhere");
      } else if (rec.type == recovery::WalRecordType::kDelete) {
        const auto [it, fresh] = delete_lsn.emplace(rec.id, rec.lsn);
        (void)fresh;
        oracle.expect(it->second == rec.lsn, "delete of ", rec.id,
                      " logged under lsn ", rec.lsn, " on worker ", w,
                      " but lsn ", it->second, " elsewhere");
      }
    }
  }
  // Monotone tombstones: a delete's LSN must sit above the insert it kills,
  // or replay order could resurrect the row.
  for (const auto& [id, dlsn] : delete_lsn) {
    const auto it = insert_lsn.find(id);
    if (it == insert_lsn.end()) continue;  // delete of a build-corpus row
    oracle.expect(dlsn > it->second, "row ", id, " deleted at lsn ", dlsn,
                  " <= its insert lsn ", it->second);
  }
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg,
                            const std::shared_ptr<ScheduleController>& ctrl,
                            std::shared_ptr<ScheduleStrategy> strategy,
                            ScheduleOptions opts) {
  ScenarioResult result;
  Oracle oracle;

  // Identical disk state on every (re-)execution — DFS replays depend on it.
  const std::string scratch = cfg.scratch_dir.empty()
                                  ? (fs::temp_directory_path() /
                                     "annsim_explore_scratch").string()
                                  : cfg.scratch_dir;
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const std::string wal_dir = scratch + "/wal";
  const std::string ckpt_dir = scratch + "/ckpt";

  const auto workload =
      data::make_sift_like(cfg.base_rows, cfg.queries, cfg.seed);

  core::EngineConfig ec;
  ec.n_workers = cfg.workers;
  ec.replication = cfg.replication;
  ec.n_probe = std::min<std::size_t>(cfg.workers, 2);
  // Controlled runs need every engine thread to be a tracked rank: one
  // search thread per worker, two-sided results (no master poll loop), and
  // no failure-detection beacon helpers.
  ec.threads_per_worker = 1;
  ec.one_sided = false;
  ec.result_timeout_ms = 0.0;
  ec.segment_delta_capacity = 64;
  ec.partitioner.vantage_candidates = 4;
  ec.partitioner.vantage_sample = 16;
  ec.seed = cfg.seed;
  ec.checkpoint_dir = ckpt_dir;
  ec.wal_dir = wal_dir;
  if (cfg.arm_faults || cfg.mix == Mix::kHeal) {
    // A kill rule that never fires still arms the injector, which is the
    // lever that routes the write plane through its recv_for paths — every
    // round-timeout becomes a schedulable choice point.
    mpi::KillRule never;
    never.rank = 1;
    ec.fault.kills.push_back(never);
  }
  if (cfg.mix == Mix::kHeal) {
    // Real mid-stream death: the last worker's third post-build send op (its
    // third write-round ack) is swallowed and the rank goes fail-silent.
    mpi::KillRule kill;
    kill.rank = int(cfg.workers);  // worker W-1 = global rank W
    kill.after_ops = 2;
    ec.fault.kills.push_back(kill);
    // A kill that actually fires requires the failure detector. That is safe
    // here because this mix never searches under control — detection's beacon
    // helpers only spawn on the query plane — while the write plane's
    // recv_for deadline stays a schedulable choice point either way.
    ec.result_timeout_ms = 1000.0;
  }

  core::DistributedAnnEngine engine(&workload.base, ec);
  if (cfg.mpi_check) engine.set_mpi_check(true, /*fatal=*/false);
  engine.build();

  // Fault-free baseline for the read-stability oracle, before any control.
  data::KnnResults baseline;
  if (cfg.mix == Mix::kQuery) {
    baseline = engine.search(workload.queries, cfg.k);
  }

  std::vector<GlobalId> acked_inserts;
  std::vector<GlobalId> acked_deletes;
  data::KnnResults controlled_results;

  engine.set_schedule(ctrl);
  result.outcome = run_controlled(
      *ctrl, std::move(strategy),
      [&] {
        switch (cfg.mix) {
          case Mix::kWrite: {
            const auto rows1 =
                data::make_sift_like(cfg.write_rows, 1, cfg.seed + 11).base;
            const auto rows2 =
                data::make_sift_like(cfg.write_rows, 1, cfg.seed + 12).base;
            const auto ws1 = engine.insert(rows1);
            const auto ws2 = engine.insert(rows2);
            for (const auto id : acked_ids(ws1)) acked_inserts.push_back(id);
            for (const auto id : acked_ids(ws2)) acked_inserts.push_back(id);
            if (!ws1.assigned_ids.empty()) {
              const GlobalId victim = ws1.assigned_ids.front();
              const auto wd = engine.remove({&victim, 1});
              forget(acked_inserts, victim);
              if (wd.all_acked && wd.erased_replicas > 0) {
                acked_deletes.push_back(victim);
              }
            }
            break;
          }
          case Mix::kQuery:
            controlled_results = engine.search(workload.queries, cfg.k);
            break;
          case Mix::kCompact: {
            const auto rows =
                data::make_sift_like(cfg.write_rows, 1, cfg.seed + 21).base;
            const auto ws = engine.insert(rows);
            for (const auto id : acked_ids(ws)) acked_inserts.push_back(id);
            (void)engine.compact();
            break;
          }
          case Mix::kHeal: {
            for (int round = 0; round < 3; ++round) {
              const auto rows = data::make_sift_like(cfg.write_rows, 1,
                                                     cfg.seed + 31 + round)
                                    .base;
              const auto ws = engine.insert(rows);
              for (const auto id : acked_ids(ws)) acked_inserts.push_back(id);
            }
            break;
          }
          case Mix::kMixed: {
            const auto rows =
                data::make_sift_like(cfg.write_rows, 1, cfg.seed + 41).base;
            const auto ws = engine.insert(rows);
            for (const auto id : acked_ids(ws)) acked_inserts.push_back(id);
            (void)engine.search(workload.queries, cfg.k);
            if (!ws.assigned_ids.empty()) {
              const GlobalId victim = ws.assigned_ids.back();
              const auto wd = engine.remove({&victim, 1});
              forget(acked_inserts, victim);
              if (wd.all_acked && wd.erased_replicas > 0) {
                acked_deletes.push_back(victim);
              }
            }
            (void)engine.compact();
            break;
          }
        }
      },
      opts);
  engine.set_schedule(nullptr);

  // ---- oracles (free-running). A schedule failure above still runs them:
  // a deadlocked schedule must not have broken durability either.
  const auto heal_report = engine.heal();
  (void)heal_report;

  for (const auto id : acked_inserts) {
    oracle.expect(engine.contains(id), "acked insert ", id,
                  " missing after crash+heal");
  }
  for (const auto id : acked_deletes) {
    oracle.expect(!engine.contains(id), "acked delete ", id,
                  " resurrected after crash+heal");
  }
  oracle.expect(engine.under_replicated_partitions().empty(),
                "partitions under-replicated after heal");
  for (std::size_t p = 0; p < cfg.workers; ++p) {
    oracle.expect(engine.live_replicas(PartitionId(p)) == cfg.replication,
                  "partition ", p, " has ",
                  engine.live_replicas(PartitionId(p)), " live replicas, want ",
                  cfg.replication);
  }
  if (cfg.mix == Mix::kQuery) {
    oracle.expect(identical_results(baseline, controlled_results),
                  "controlled top-k diverged from the fault-free baseline");
  }
  if (cfg.mpi_check) {
    const auto report = engine.check_report();
    oracle.expect(report.clean(),
                  "mpi-check violations: ", check::to_string(report));
  }

  // The WAL invariants read the log files directly, so the engine (and its
  // open handles) must be gone first.
  const bool wal_oracle = cfg.mix != Mix::kQuery;
  {
    core::DistributedAnnEngine drop = std::move(engine);
    (void)drop;
  }
  if (wal_oracle) check_wals(oracle, wal_dir, cfg.workers);

  result.oracle_failures = oracle.failures();
  if (oracle.failures() > 0) {
    if (!result.outcome.error.empty()) result.outcome.error += "; ";
    result.outcome.error += "oracle: " + oracle.message();
  }
  fs::remove_all(scratch);
  return result;
}

}  // namespace annsim::explore
