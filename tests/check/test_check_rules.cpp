// Negative tests for annsim::check — every rule is deliberately violated and
// the test asserts the exact rule fires with rank/op-attributed diagnostics.
// All runs use fatal=false so the report can be inspected; the fatal path has
// its own test at the end.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/mpi/mpi.hpp"

namespace {

using annsim::Error;
using annsim::check::CheckOptions;
using annsim::check::CheckReport;
using annsim::check::Rule;
namespace mpi = annsim::mpi;

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(std::byte(v));
  return out;
}

CheckOptions lenient() {
  CheckOptions o;
  o.enabled = true;
  o.fatal = false;
  return o;
}

TEST(CheckRules, CleanRunReportsClean) {
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.fatal = true;  // a clean run must not throw even in fatal mode
  rt.configure_check(o);
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 5, std::span<const std::byte>{});
      auto msg = world.recv(1, 6);
      EXPECT_EQ(msg.tag, 6);
    } else {
      (void)world.recv(0, 5);
      world.send(0, 6, std::span<const std::byte>{});
    }
    world.barrier();
  });
  const CheckReport report = rt.check_report();
  EXPECT_TRUE(report.clean()) << annsim::check::to_string(report);
  EXPECT_EQ(report.runs, 1u);
}

// Regression for a latent API gap the checker work surfaced: Comm::isend
// skipped the negative-tag validation Comm::send performed, so a bad tag
// slipped into the fabric unvalidated. Both forms must reject it now
// (hard error, independent of whether the checker is armed).
TEST(CheckRules, IsendValidatesUserTagsLikeSend) {
  mpi::Runtime rt(2);
  rt.run([](mpi::Comm& world) {
    if (world.rank() != 0) return;
    EXPECT_THROW((void)world.isend(1, -5, std::span<const std::byte>{}),
                 Error);
    EXPECT_THROW(world.send(1, -5, std::span<const std::byte>{}), Error);
  });
}

TEST(CheckRules, RequestLeakDroppedHandle) {
  mpi::Runtime rt(2);
  rt.configure_check(lenient());
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) {
      // Posted, never completed, handle dropped: the canonical leak.
      (void)world.irecv(1, 3);
    }
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kRequestLeak), 1u)
      << annsim::check::to_string(report);
  const auto* occ = report.first(Rule::kRequestLeak);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->rank, 0);
  EXPECT_EQ(occ->peer, 1);
  EXPECT_EQ(occ->tag, 3);
}

TEST(CheckRules, RequestLeakCompletedButNeverTaken) {
  mpi::Runtime rt(2);
  rt.configure_check(lenient());
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 1) {
      world.send(0, 4, std::span<const std::byte>{});
    } else {
      world.barrier();  // placed after the send on rank 1's side
      (void)world.irecv(1, 4);  // completes instantly off the queue; dropped
    }
    if (world.rank() == 1) world.barrier();
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kRequestLeak), 1u)
      << annsim::check::to_string(report);
}

TEST(CheckRules, NoLeakWhenCancelled) {
  mpi::Runtime rt(2);
  rt.configure_check(lenient());
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) {
      auto req = world.irecv(1, 3);
      EXPECT_TRUE(req.cancel());
    }
  });
  EXPECT_TRUE(rt.check_report().clean());
}

TEST(CheckRules, RmaOutsideEpoch) {
  mpi::Runtime rt(2);
  rt.configure_check(lenient());
  rt.run([](mpi::Comm& world) {
    auto win = world.create_window(16);
    world.barrier();
    if (world.rank() == 0) {
      (void)win.get(1, 0, 4);  // no lock_shared: flagged, op still proceeds
    }
    world.barrier();
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kRmaOutsideEpoch), 1u)
      << annsim::check::to_string(report);
  const auto* occ = report.first(Rule::kRmaOutsideEpoch);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->rank, 0);
  EXPECT_EQ(occ->peer, 1);
}

TEST(CheckRules, RmaLockMisuse) {
  mpi::Runtime rt(2);
  rt.configure_check(lenient());
  rt.run([](mpi::Comm& world) {
    auto win = world.create_window(16);
    world.barrier();
    if (world.rank() == 0) {
      win.lock_shared(1);
      win.lock_shared(1);  // nested: flagged
      win.unlock(1);
      win.unlock(1);  // without lock: flagged
    }
    world.barrier();
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kRmaLockMisuse), 2u)
      << annsim::check::to_string(report);
}

TEST(CheckRules, RmaEpochLeak) {
  mpi::Runtime rt(2);
  rt.configure_check(lenient());
  rt.run([](mpi::Comm& world) {
    auto win = world.create_window(16);
    world.barrier();
    if (world.rank() == 0) win.lock_shared(1);  // never unlocked
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kRmaEpochLeak), 1u)
      << annsim::check::to_string(report);
  const auto* occ = report.first(Rule::kRmaEpochLeak);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->rank, 0);
  EXPECT_EQ(occ->peer, 1);
}

TEST(CheckRules, ReservedTagSend) {
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.reserved_tags = {7};
  rt.configure_check(o);
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 7, std::span<const std::byte>{});           // flagged
      world.send_reserved(1, 7, std::span<const std::byte>{});  // sanctioned
    } else {
      (void)world.recv(0, 7);
      (void)world.recv(0, 7);
    }
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kReservedTagSend), 1u)
      << annsim::check::to_string(report);
  const auto* occ = report.first(Rule::kReservedTagSend);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->rank, 0);
  EXPECT_EQ(occ->peer, 1);
  EXPECT_EQ(occ->tag, 7);
}

/// Each write-plane control tag is reserved engine-wide: a naked send on it
/// must be flagged, the sanctioned send_reserved must stay clean. One test
/// per tag so a regression names the exact tag it dropped from the set.
class ReservedWriteTag : public ::testing::TestWithParam<mpi::Tag> {};

TEST_P(ReservedWriteTag, NakedSendIsFlaggedSanctionedSendIsNot) {
  const mpi::Tag tag = GetParam();
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.reserved_tags = {tag};
  rt.configure_check(o);
  rt.run([tag](mpi::Comm& world) {
    if (world.rank() == 0) {
      world.send(1, tag, std::span<const std::byte>{});           // flagged
      world.send_reserved(1, tag, std::span<const std::byte>{});  // sanctioned
    } else {
      (void)world.recv(0, tag);
      (void)world.recv(0, tag);
    }
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kReservedTagSend), 1u)
      << annsim::check::to_string(report);
  const auto* occ = report.first(Rule::kReservedTagSend);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->rank, 0);
  EXPECT_EQ(occ->peer, 1);
  EXPECT_EQ(occ->tag, tag);
}

INSTANTIATE_TEST_SUITE_P(WritePlane, ReservedWriteTag,
                         ::testing::Values(annsim::core::kTagWrite,
                                           annsim::core::kTagWriteAck),
                         [](const auto& pinfo) {
                           return pinfo.param == annsim::core::kTagWrite
                                      ? "Write"
                                      : "WriteAck";
                         });

TEST(CheckRules, WildcardRecvWhileTagsReserved) {
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.reserved_tags = {7};
  rt.configure_check(o);
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 1) {
      world.send(0, 2, std::span<const std::byte>{});
    } else {
      auto msg = world.recv(1, mpi::kAnyTag);  // flagged
      EXPECT_EQ(msg.tag, 2);
    }
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kWildcardRecv), 1u)
      << annsim::check::to_string(report);
  EXPECT_EQ(report.first(Rule::kWildcardRecv)->rank, 0);
}

TEST(CheckRules, IrecvTagsIsNotAWildcard) {
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.reserved_tags = {7};
  rt.configure_check(o);
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 1) {
      world.send(0, 4, bytes({1}));
      world.send(0, 2, bytes({2}));
    } else {
      // Tag-set receive: skips the queued tag-4 message, matches tag 2.
      auto req = world.irecv_tags(1, {2, 3});
      req.wait();
      auto msg = req.take();
      EXPECT_EQ(msg.tag, 2);
      EXPECT_EQ(msg.payload, bytes({2}));
      auto other = world.recv(1, 4);
      EXPECT_EQ(other.payload, bytes({1}));
    }
  });
  EXPECT_TRUE(rt.check_report().clean())
      << annsim::check::to_string(rt.check_report());
}

TEST(CheckRules, DeadlockTwoRankRecvCycle) {
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.deadlock_after = std::chrono::milliseconds(100);
  rt.configure_check(o);
  try {
    rt.run([](mpi::Comm& world) {
      // Classic head-to-head: each rank waits for a message the other can
      // only send after its own recv returns.
      if (world.rank() == 0) {
        (void)world.recv(1, 5);
        world.send(1, 6, std::span<const std::byte>{});
      } else {
        (void)world.recv(0, 6);
        world.send(0, 5, std::span<const std::byte>{});
      }
    });
    FAIL() << "deadlocked run() returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
  const CheckReport report = rt.check_report();
  EXPECT_GE(report.count(Rule::kDeadlock), 1u)
      << annsim::check::to_string(report);
  const auto* occ = report.first(Rule::kDeadlock);
  ASSERT_NE(occ, nullptr);
  EXPECT_NE(occ->detail.find("cycle"), std::string::npos);
  EXPECT_NE(occ->detail.find("blocked"), std::string::npos);
}

TEST(CheckRules, LongBlockedRecvWithoutCycleIsNotADeadlock) {
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.deadlock_after = std::chrono::milliseconds(50);
  rt.configure_check(o);
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) {
      // Blocked well past the threshold, but rank 1 eventually delivers:
      // an edge with no cycle must never abort the run.
      (void)world.recv(1, 5);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      world.send(0, 5, std::span<const std::byte>{});
    }
  });
  EXPECT_TRUE(rt.check_report().clean())
      << annsim::check::to_string(rt.check_report());
}

TEST(CheckRules, UnmatchedSendAtFinalize) {
  mpi::Runtime rt(2);
  rt.configure_check(lenient());
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) world.send(1, 9, bytes({1, 2, 3}));
  });
  const CheckReport report = rt.check_report();
  EXPECT_EQ(report.count(Rule::kUnmatchedSend), 1u)
      << annsim::check::to_string(report);
  const auto* occ = report.first(Rule::kUnmatchedSend);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->rank, 0);  // sender
  EXPECT_EQ(occ->peer, 1);  // destination
  EXPECT_EQ(occ->tag, 9);
  const auto it = report.unmatched_histogram.find({9, 1});
  ASSERT_NE(it, report.unmatched_histogram.end());
  EXPECT_EQ(it->second, 1u);
}

TEST(CheckRules, BestEffortTagsAreResidueNotViolations) {
  mpi::Runtime rt(2);
  CheckOptions o = lenient();
  o.best_effort_tags = {9};
  rt.configure_check(o);
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) world.send(1, 9, bytes({1}));
  });
  const CheckReport report = rt.check_report();
  EXPECT_TRUE(report.clean()) << annsim::check::to_string(report);
  EXPECT_EQ(report.best_effort_residue, 1u);
}

TEST(CheckRules, FatalModeThrowsWithReportText) {
  mpi::Runtime rt(2);
  CheckOptions o;
  o.enabled = true;
  o.fatal = true;
  rt.configure_check(o);
  try {
    rt.run([](mpi::Comm& world) {
      if (world.rank() == 0) world.send(1, 9, bytes({1}));
    });
    FAIL() << "fatal checked run() with a violation returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unmatched-send"), std::string::npos)
        << e.what();
  }
}

TEST(CheckRules, ReportMergeAndToString) {
  CheckReport a;
  a.counts[std::size_t(Rule::kUnmatchedSend)] = 2;
  a.occurrences.push_back({Rule::kUnmatchedSend, 0, 1, 9, "first"});
  a.unmatched_histogram[{9, 1}] = 2;
  a.runs = 1;

  CheckReport b;
  b.counts[std::size_t(Rule::kRequestLeak)] = 1;
  b.occurrences.push_back({Rule::kRequestLeak, 2, 0, 3, "second"});
  b.unmatched_histogram[{9, 1}] = 1;
  b.best_effort_residue = 4;
  b.runs = 2;

  a.merge(b);
  EXPECT_EQ(a.count(Rule::kUnmatchedSend), 2u);
  EXPECT_EQ(a.count(Rule::kRequestLeak), 1u);
  EXPECT_EQ(a.total_violations(), 3u);
  EXPECT_EQ((a.unmatched_histogram[{9, 1}]), 3u);
  EXPECT_EQ(a.best_effort_residue, 4u);
  EXPECT_EQ(a.runs, 3u);

  const std::string text = annsim::check::to_string(a);
  EXPECT_NE(text.find("unmatched-send"), std::string::npos);
  EXPECT_NE(text.find("request-leak"), std::string::npos);
  EXPECT_NE(text.find("tag 9 -> rank 1: 3"), std::string::npos);

  CheckReport clean;
  clean.runs = 1;
  EXPECT_NE(annsim::check::to_string(clean).find("clean"), std::string::npos);
}

TEST(CheckRules, CheckerOffCostsNothingAndChangesNothing) {
  if (annsim::check::env_check_enabled()) {
    GTEST_SKIP() << "ANNSIM_MPI_CHECK force-enables the checker; the "
                    "checker-off contract cannot be observed in this run";
  }
  mpi::Runtime rt(2);
  EXPECT_FALSE(rt.check_enabled());
  rt.run([](mpi::Comm& world) {
    if (world.rank() == 0) {
      (void)world.irecv(1, 3);                  // dropped handle: no checker
      world.send(1, 9, std::span<const std::byte>{});  // unmatched: no checker
    }
  });
  EXPECT_TRUE(rt.check_report().clean());
  EXPECT_EQ(rt.check_report().runs, 0u);
}

}  // namespace
