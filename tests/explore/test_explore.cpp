/// Runtime-level schedule exploration: the controller's determinism contract,
/// replay fidelity, timeout choice points, and the DFS driver's sleep-set
/// pruning — all against tiny hand-built rank programs, no engine involved.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "annsim/check/check.hpp"
#include "annsim/common/error.hpp"
#include "annsim/explore/explore.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/mpi/schedule.hpp"

namespace annsim::explore {
namespace {

std::vector<std::byte> byte_of(char c) { return {std::byte(c)}; }

/// Two racing senders into one receiver; returns the arrival order ("ab" or
/// "ba") observed by rank 0 under the given controller.
std::string race_order(const std::shared_ptr<mpi::ScheduleController>& ctrl) {
  std::string order;
  mpi::Runtime rt(3);
  rt.set_schedule(ctrl);
  rt.run([&](mpi::Comm& c) {
    if (c.rank() == 1) {
      c.send(0, 1, byte_of('a'));
    } else if (c.rank() == 2) {
      c.send(0, 2, byte_of('b'));
    } else {
      for (int i = 0; i < 2; ++i) {
        mpi::Message m = c.recv(mpi::kAnySource, mpi::kAnyTag);
        order.push_back(char(m.payload.at(0)));
      }
    }
  });
  return order;
}

TEST(Explore, SameSeedSameScheduleSameDigest) {
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  std::string order1, order2;
  auto out1 = run_controlled(*ctrl, std::make_shared<RandomStrategy>(7),
                             [&] { order1 = race_order(ctrl); });
  auto out2 = run_controlled(*ctrl, std::make_shared<RandomStrategy>(7),
                             [&] { order2 = race_order(ctrl); });
  ASSERT_TRUE(out1.ok()) << out1.error;
  ASSERT_TRUE(out2.ok()) << out2.error;
  EXPECT_EQ(order1, order2);
  EXPECT_EQ(out1.trace.digest, out2.trace.digest);
  EXPECT_EQ(out1.trace.choices, out2.trace.choices);
  EXPECT_GE(out1.trace.branch_points, 1u);
}

TEST(Explore, SeedsReachBothOrders) {
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  std::set<std::string> orders;
  for (std::uint64_t seed = 0; seed < 32 && orders.size() < 2; ++seed) {
    std::string order;
    auto out = run_controlled(*ctrl, std::make_shared<RandomStrategy>(seed),
                              [&] { order = race_order(ctrl); });
    ASSERT_TRUE(out.ok()) << out.error;
    orders.insert(order);
  }
  EXPECT_EQ(orders.size(), 2u) << "32 seeds never flipped the race";
}

TEST(Explore, ForcedReplayReproducesDigestByteForByte) {
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  std::string order1;
  auto out = run_controlled(*ctrl, std::make_shared<RandomStrategy>(3),
                            [&] { order1 = race_order(ctrl); });
  ASSERT_TRUE(out.ok()) << out.error;

  std::string order2;
  auto replay = run_controlled(
      *ctrl, std::make_shared<ForcedStrategy>(out.trace.choices),
      [&] { order2 = race_order(ctrl); });
  ASSERT_TRUE(replay.ok()) << replay.error;
  EXPECT_EQ(order1, order2);
  EXPECT_EQ(out.trace.digest, replay.trace.digest);
}

TEST(Explore, PctStrategyRunsClean) {
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  std::set<std::string> orders;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    std::string order;
    auto out = run_controlled(*ctrl, std::make_shared<PctStrategy>(seed, 3),
                              [&] { order = race_order(ctrl); });
    ASSERT_TRUE(out.ok()) << out.error;
    ASSERT_FALSE(order.empty());
    orders.insert(order);
  }
  EXPECT_GE(orders.size(), 1u);
}

TEST(Explore, ReplayTokenRoundTrips) {
  ScheduleTrace trace;
  trace.choices = {0, 3, 1, 255};
  trace.digest = 0xdeadbeefcafe1234ULL;
  const std::string token = encode_replay_token('p', 0xabc123, 5, trace);
  const auto decoded = decode_replay_token(token);
  ASSERT_TRUE(decoded.has_value()) << token;
  EXPECT_EQ(decoded->strategy, 'p');
  EXPECT_EQ(decoded->seed, 0xabc123u);
  EXPECT_EQ(decoded->depth, 5);
  EXPECT_EQ(decoded->choices, trace.choices);
  EXPECT_EQ(decoded->digest, trace.digest);

  EXPECT_FALSE(decode_replay_token("").has_value());
  EXPECT_FALSE(decode_replay_token("X2.r.0.0..0").has_value());
  EXPECT_FALSE(decode_replay_token("X1.z.0.0..0").has_value());
  EXPECT_FALSE(decode_replay_token("X1.r.0.0.abc.0").has_value());  // odd hex
}

TEST(Explore, DfsEnumeratesBothOrdersOfADependentRace) {
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  DfsDriver dfs;
  std::set<std::string> orders;
  std::set<std::uint64_t> digests;
  do {
    std::string order;
    auto out = run_controlled(*ctrl, dfs.strategy(),
                              [&] { order = race_order(ctrl); });
    ASSERT_TRUE(out.ok()) << out.error;
    orders.insert(order);
    digests.insert(out.trace.digest);
  } while (dfs.advance());
  EXPECT_EQ(dfs.schedules_run(), 2u);
  EXPECT_FALSE(dfs.truncated());
  EXPECT_EQ(orders, (std::set<std::string>{"ab", "ba"}));
  EXPECT_EQ(digests.size(), 2u);
}

TEST(Explore, SleepSetsPruneIndependentInterleavings) {
  // Three sender->receiver pairs, pairwise independent (distinct dests):
  // 3! = 6 naive interleavings, 4 after sleep-set pruning.
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  DfsDriver dfs;
  std::size_t runs = 0;
  do {
    auto out = run_controlled(*ctrl, dfs.strategy(), [&] {
      mpi::Runtime rt(6);
      rt.set_schedule(ctrl);
      rt.run([&](mpi::Comm& c) {
        const int r = c.rank();
        if (r >= 3) {
          c.send(r - 3, 1, byte_of('x'));
        } else {
          (void)c.recv(r + 3, 1);
        }
      });
    });
    ASSERT_TRUE(out.ok()) << out.error;
    ++runs;
  } while (dfs.advance());
  EXPECT_EQ(runs, dfs.schedules_run());
  EXPECT_LT(dfs.schedules_run(), 6u);
  EXPECT_EQ(dfs.schedules_run(), 4u);
}

TEST(Explore, TimeoutIsAChoicePointAndBothOutcomesReachable) {
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  DfsDriver dfs;
  std::set<bool> outcomes;
  do {
    bool got = false;
    std::uint64_t residue = 0;
    auto out = run_controlled(*ctrl, dfs.strategy(), [&] {
      mpi::Runtime rt(2);
      rt.set_schedule(ctrl);
      // The timeout outcome abandons rank 1's message by design: declare
      // tag 9 best-effort, so the checker counts it instead of failing.
      check::CheckOptions opts;
      opts.enabled = true;
      opts.best_effort_tags = {9};
      rt.configure_check(opts);
      rt.run([&](mpi::Comm& c) {
        if (c.rank() == 1) {
          c.send(0, 9, byte_of('m'));
        } else {
          // Generous wall-clock deadline: under control the timeout fires
          // as a scheduled event, never by real waiting.
          got = c.recv_for(1, 9, std::chrono::milliseconds(200)).has_value();
        }
      });
      residue = rt.check_report().best_effort_residue;
    });
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(residue, got ? 0u : 1u);
    outcomes.insert(got);
  } while (dfs.advance());
  EXPECT_EQ(outcomes, (std::set<bool>{false, true}))
      << "DFS explored " << dfs.schedules_run()
      << " schedules without reaching both the delivery and the timeout";
}

TEST(Explore, StrictReplayThrowsOnDivergentTrace) {
  auto ctrl = std::make_shared<mpi::ScheduleController>();
  // Too few recorded choices for the race's branch point.
  auto out = run_controlled(
      *ctrl, std::make_shared<ForcedStrategy>(std::vector<std::uint8_t>{}),
      [&] { (void)race_order(ctrl); });
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("replay divergence"), std::string::npos)
      << out.error;
}

TEST(Explore, UncontrolledRuntimesStillFreeRun) {
  // No controller attached: the schedule hook must stay out of the way.
  std::string order;
  mpi::Runtime rt(3);
  rt.run([&](mpi::Comm& c) {
    if (c.rank() == 1) {
      c.send(0, 1, byte_of('a'));
    } else if (c.rank() == 2) {
      c.send(0, 2, byte_of('b'));
    } else {
      for (int i = 0; i < 2; ++i) {
        order.push_back(char(c.recv(mpi::kAnySource, mpi::kAnyTag).payload.at(0)));
      }
    }
  });
  EXPECT_EQ(order.size(), 2u);
}

}  // namespace
}  // namespace annsim::explore
