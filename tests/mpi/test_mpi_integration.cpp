/// Cross-feature runtime scenarios: the RMA k-NN merge end to end, mixed
/// communicators, and high-concurrency stress — the exact usage patterns the
/// engine's search phase relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/mpi/mpi.hpp"

namespace annsim::mpi {
namespace {

TEST(MpiIntegration, KnnMergeThroughWindowMatchesSequentialMerge) {
  // Fig 2's full path: every worker accumulates a sorted partial k-NN list
  // into the master's slot; the final content must equal the sequential
  // merge regardless of arrival order.
  const int n_workers = 7;
  const core::SlotLayout layout{10, std::size_t(n_workers)};
  Rng gen(42);

  std::vector<std::vector<Neighbor>> partials(n_workers);
  GlobalId id = 0;
  for (auto& p : partials) {
    for (int i = 0; i < 25; ++i) p.push_back({gen.uniformf(), id++});
    std::sort(p.begin(), p.end());
    p.resize(10);
  }
  TopK expected(10);
  for (const auto& p : partials) expected.merge(p);
  const auto want = expected.take_sorted();

  Runtime rt(n_workers + 1);
  rt.run([&](Comm& c) {
    Window win =
        c.create_window(c.rank() == 0 ? layout.window_bytes(1) : 0);
    c.barrier();
    if (c.rank() != 0) {
      win.lock_shared(0);
      win.get_accumulate(
          0, layout.slot_offset(0),
          core::encode_slot_update(partials[std::size_t(c.rank() - 1)], layout,
                                   PartitionId(c.rank() - 1)),
          core::knn_slot_merge(layout));
      win.unlock(0);
    }
    c.barrier();
    if (c.rank() == 0) {
      win.lock_shared(0);
      auto bytes = win.get(0, 0, layout.slot_bytes());
      win.unlock(0);
      const auto slot = core::decode_slot(bytes, layout);
      EXPECT_EQ(slot.merged_count, std::uint32_t(n_workers));
      EXPECT_EQ(slot.neighbors, want);
    }
  });
}

TEST(MpiIntegration, SubcommunicatorsRunCollectivesConcurrently) {
  // The construction phase has disjoint halves running alltoallv at the
  // same time; traffic must not bleed between them.
  Runtime rt(8);
  rt.run([&](Comm& world) {
    Comm half = world.split(world.rank() < 4 ? 0 : 1);
    for (int round = 0; round < 10; ++round) {
      std::vector<std::vector<std::byte>> send(std::size_t(half.size()));
      for (int d = 0; d < half.size(); ++d) {
        BinaryWriter w;
        w.write(world.rank() * 1000 + round);
        send[std::size_t(d)] = w.take();
      }
      auto recv = half.alltoallv(send);
      for (int s = 0; s < half.size(); ++s) {
        BinaryReader r(recv[std::size_t(s)]);
        const int v = r.read<int>();
        const int sender_world = world.rank() < 4 ? s : s + 4;
        EXPECT_EQ(v, sender_world * 1000 + round);
      }
    }
  });
}

TEST(MpiIntegration, NestedSplitsWithWindows) {
  // Windows created on the world communicator keep working while subgroups
  // run their own traffic.
  Runtime rt(4);
  rt.run([&](Comm& world) {
    Window win = world.create_window(world.rank() == 0 ? 64 : 0);
    Comm pair = world.split(world.rank() / 2);
    const auto sum = pair.allreduce(
        std::uint64_t(world.rank()),
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, world.rank() < 2 ? 1u : 5u);
    world.barrier();
    if (world.rank() == 3) {
      win.lock_shared(0);
      const std::uint64_t v = 99;
      win.put(0, 0, std::as_bytes(std::span<const std::uint64_t>(&v, 1)));
      win.unlock(0);
    }
    world.barrier();
    if (world.rank() == 0) {
      win.lock_shared(0);
      auto bytes = win.get(0, 0, 8);
      win.unlock(0);
      std::uint64_t v;
      std::memcpy(&v, bytes.data(), 8);
      EXPECT_EQ(v, 99u);
    }
  });
}

TEST(MpiIntegration, MasterWorkerPatternStress) {
  // Algorithm 3/4 in miniature under load: a master dispatches many tagged
  // jobs; two threads per worker consume and reply; everything reconciles.
  const int P = 4;
  const int jobs_per_worker = 60;
  Runtime rt(P + 1);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int j = 0; j < jobs_per_worker * P; ++j) {
        BinaryWriter w;
        w.write(j);
        c.send(1 + j % P, core::kTagQuery, w.bytes());
      }
      for (int wkr = 1; wkr <= P; ++wkr) {
        (void)c.isend(wkr, core::kTagEoq, {});
      }
      std::uint64_t sum = 0;
      for (int j = 0; j < jobs_per_worker * P; ++j) {
        Message m = c.recv(kAnySource, core::kTagResult);
        BinaryReader r(m.payload);
        sum += r.read<std::uint64_t>();
      }
      const std::uint64_t n = std::uint64_t(jobs_per_worker) * P;
      EXPECT_EQ(sum, n * (n - 1) / 2);  // echoes of 0..n-1
    } else {
      std::atomic<bool> done{false};
      auto worker_thread = [&] {
        for (;;) {
          Request req = c.irecv(0, kAnyTag);
          bool cancelled = false;
          while (!req.test()) {
            if (done.load()) {
              if (req.cancel()) {
                cancelled = true;
                break;
              }
            }
            std::this_thread::yield();
          }
          if (cancelled) return;
          Message m = req.take();
          if (m.tag == core::kTagEoq) {
            done.store(true);
            return;
          }
          BinaryReader r(m.payload);
          BinaryWriter w;
          w.write(std::uint64_t(r.read<int>()));
          (void)c.isend(0, core::kTagResult, w.bytes());
        }
      };
      std::thread t1(worker_thread), t2(worker_thread);
      t1.join();
      t2.join();
    }
  });
}

TEST(MpiIntegration, LargePayloadsSurvive) {
  Runtime rt(2);
  rt.run([&](Comm& c) {
    const std::size_t mb = 4 * 1024 * 1024;
    if (c.rank() == 0) {
      std::vector<std::byte> big(mb);
      for (std::size_t i = 0; i < big.size(); i += 4096) {
        big[i] = std::byte(i / 4096);
      }
      c.send(1, 1, big);
    } else {
      Message m = c.recv(0, 1);
      ASSERT_EQ(m.payload.size(), mb);
      EXPECT_EQ(m.payload[8 * 4096], std::byte(8));
    }
  });
}

}  // namespace
}  // namespace annsim::mpi
