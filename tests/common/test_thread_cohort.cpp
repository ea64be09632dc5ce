/// ThreadCohort: members run at once, parked threads are reused, cohorts nest
/// and run side by side, a member's exception reaches the caller, and the
/// threads that serve simulated ranks and worker teams are not re-created per
/// search.

#include "annsim/common/thread_cohort.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/explore/explore.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/mpi/schedule.hpp"

namespace annsim {
namespace {

TEST(ThreadCohort, RunsEveryMemberAtOnce) {
  constexpr std::size_t kN = 9;
  std::latch all_in(kN);  // only returns if all nine members run together
  std::vector<std::atomic<int>> hits(kN);
  ThreadCohort::run(kN, [&](std::size_t i) {
    all_in.arrive_and_wait();
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadCohort, CallerRunsMemberZero) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(4);
  ThreadCohort::run(ids.size(),
                    [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  EXPECT_EQ(ids[0], caller);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_NE(ids[i], caller);
}

TEST(ThreadCohort, EmptyAndSingleCohortsStartNoThread) {
  const auto before = ThreadCohort::threads_created();
  bool ran = false;
  ThreadCohort::run(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  ThreadCohort::run(1, [&](std::size_t i) { ran = i == 0; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(ThreadCohort::threads_created(), before);
}

TEST(ThreadCohort, SecondCohortReusesParkedThreads) {
  ThreadCohort::run(9, [](std::size_t) {});
  const auto before = ThreadCohort::threads_created();
  for (int i = 0; i < 3; ++i) ThreadCohort::run(9, [](std::size_t) {});
  EXPECT_EQ(ThreadCohort::threads_created(), before);
}

TEST(ThreadCohort, CohortsNestInsideMembers) {
  constexpr std::size_t kOuter = 3, kInner = 3;
  std::latch all_in(kOuter * kInner);
  std::atomic<int> leaves{0};
  ThreadCohort::run(kOuter, [&](std::size_t) {
    ThreadCohort::run(kInner, [&](std::size_t) {
      all_in.arrive_and_wait();
      leaves.fetch_add(1);
    });
  });
  EXPECT_EQ(leaves.load(), int(kOuter * kInner));
}

TEST(ThreadCohort, ConcurrentCallersEachGetWholeCohorts) {
  constexpr int kCallers = 4, kCohorts = 50, kN = 9;
  std::atomic<int> members{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int b = 0; b < kCohorts; ++b) {
        std::latch all_in(kN);
        ThreadCohort::run(kN, [&](std::size_t) {
          all_in.arrive_and_wait();
          members.fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(members.load(), kCallers * kCohorts * kN);
}

TEST(ThreadCohort, MemberExceptionReachesCallerAfterAllFinish) {
  for (std::size_t n : {1, 2, 4}) {
    for (std::size_t thrower = 0; thrower < n; ++thrower) {
      std::atomic<std::size_t> finished{0};
      try {
        ThreadCohort::run(n, [&](std::size_t i) {
          if (i == thrower) throw Error("member " + std::to_string(i));
          finished.fetch_add(1);
        });
        ADD_FAILURE() << "no exception for n=" << n << " thrower=" << thrower;
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), "member " + std::to_string(thrower));
      }
      EXPECT_EQ(finished.load(), n - 1) << "n=" << n << " thrower=" << thrower;
    }
  }
}

TEST(ThreadCohort, OneOfSeveralExceptionsIsRethrown) {
  EXPECT_THROW(ThreadCohort::run(6, [](std::size_t) { throw Error("x"); }), Error);
  // The cohort's threads parked again and serve the next cohort.
  std::atomic<int> ran{0};
  ThreadCohort::run(6, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 6);
}

// A worker rank's thread team: a team member's error reaches the caller of
// Runtime::run whatever the team size, while its teammates and the other
// ranks finish normally.
TEST(ThreadCohort, TeamMemberErrorReachesRuntimeCaller) {
  for (std::size_t team : {1, 2, 4}) {
    mpi::Runtime rt(3);
    std::atomic<std::size_t> finished{0};
    try {
      rt.run([&](mpi::Comm& world) {
        if (world.rank() != 2) return;
        ThreadCohort::run(team, [&](std::size_t member) {
          if (member == team - 1) throw Error("team member failed");
          finished.fetch_add(1);
        });
      });
      ADD_FAILURE() << "no exception with a team of " << team;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "team member failed");
    }
    EXPECT_EQ(finished.load(), team - 1);
  }
}

// Ranks record whether the controller tracks them. A parked thread that
// served a controlled run must not carry that registration into the next,
// free-running one — even while the same controller is armed again.
TEST(ThreadCohort, ControlledRunDoesNotLeakIntoNextRun) {
  constexpr int kRanks = 5;
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  std::vector<std::atomic<int>> tracked(kRanks);
  auto ping_all = [&](mpi::Runtime& rt) {
    rt.run([&](mpi::Comm& c) {
      tracked[std::size_t(c.rank())].store(ctrl->controls_this_thread() ? 1 : 0);
      if (c.rank() == 0) {
        for (int r = 1; r < kRanks; ++r) (void)c.recv(r, 1);
      } else {
        c.send(0, 1, {});
      }
    });
  };

  ctrl->arm(std::make_shared<explore::RandomStrategy>(3));
  {
    mpi::Runtime controlled(kRanks);
    controlled.set_schedule(ctrl);
    ping_all(controlled);
  }
  const auto trace = ctrl->disarm();
  EXPECT_TRUE(trace.error.empty()) << trace.error;
  EXPECT_GE(trace.commits, std::uint64_t(kRanks - 1));
  for (const auto& t : tracked) EXPECT_EQ(t.load(), 1);

  const auto before = ThreadCohort::threads_created();
  ctrl->arm(std::make_shared<explore::RandomStrategy>(3));
  {
    mpi::Runtime free_running(kRanks);
    ping_all(free_running);
  }
  const auto idle = ctrl->disarm();
  EXPECT_EQ(ThreadCohort::threads_created(), before);  // same parked threads
  EXPECT_EQ(idle.commits, 0u);
  for (const auto& t : tracked) EXPECT_EQ(t.load(), 0);
}

// The default engine (8 workers, a 2-thread team each) runs 9 ranks and 8
// teams per search(). Creating them per call cost 25 OS threads; after one
// warm-up search they are all parked and borrowed again.
TEST(ThreadCohort, WarmSearchCreatesNoThreads) {
  const data::Workload w = data::make_sift_like(2000, 16, 5);
  core::EngineConfig cfg;
  ASSERT_EQ(cfg.n_workers, 8u);
  ASSERT_EQ(cfg.threads_per_worker, 2u);
  cfg.hnsw.ef_construction = 40;
  core::DistributedAnnEngine engine(&w.base, cfg);
  engine.build();
  (void)engine.search(w.queries, 10);

  const auto before = ThreadCohort::threads_created();
  for (int i = 0; i < 100; ++i) {
    const auto res = engine.search(w.queries, 10);
    ASSERT_EQ(res.size(), w.queries.size());
  }
  EXPECT_EQ(ThreadCohort::threads_created() - before, 0u);
}

}  // namespace
}  // namespace annsim
