// NodeHost's in-place paths on the threaded runtime: a call to a
// self-homed address runs the kernel on the task thread, a response is
// delivered on the thread that receives it, and frames a kernel pass emits
// still leave in the order it produced them whichever thread ran it.
#include <atomic>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "dse/threaded_runtime.h"

namespace dse {
namespace {

std::uint64_t Get(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

TEST(NodeHostInPlace, LocalCallsCountPerTypeButNeverAsWireTraffic) {
  constexpr int kReads = 200;
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 2});
  rt.registry().Register("main", [](Task& t) {
    const auto addr = t.AllocOnNode(64, t.node()).value();  // self-homed
    t.WriteValue<std::int64_t>(addr, 42);
    for (int i = 0; i < kReads; ++i) {
      ASSERT_EQ(t.ReadValue<std::int64_t>(addr), 42);
    }
  });
  rt.RunMain("main");

  const MetricsSnapshot node0 = rt.ClusterStats()[0];
  // Alloc, write and every read ran the kernel in place.
  EXPECT_GE(Get(node0, "rpc.local_inline"), kReads + 2u);
  EXPECT_GE(Get(node0, "msg.sent.ReadReq"), static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(Get(node0, "msg.sent.ReadReq"), Get(node0, "msg.recv.ReadReq"));
  EXPECT_EQ(Get(node0, "msg.sent.ReadResp"), Get(node0, "msg.recv.ReadResp"));
  EXPECT_EQ(Get(node0, "msg.sent.ReadReq"), Get(node0, "msg.sent.ReadResp"));
  // Only encoded frames are wire traffic: the reads never became one.
  EXPECT_LT(Get(node0, "net.msgs_sent"), static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(Get(node0, "wire.msgs_sent"), Get(node0, "net.msgs_sent"));
}

// The block's writer runs on its home, so its writes (and the invalidation
// rounds they start) run the kernel on the writer's task thread while the
// home's service thread answers the readers' block fetches. Without ordered
// emission an InvalidateReq can overtake the older ReadResp it follows; the
// reader then caches the stale block for good and keeps reading it after
// the write was acknowledged. (Eight nodes and 8000 writes: with the
// ordering removed, every run of this test caught a stale block.)
TEST(NodeHostInPlace, ReadCacheNeverServesABlockOlderThanAnAckedWrite) {
  constexpr std::int64_t kWrites = 8000;
  constexpr NodeId kHome = 1;
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 8, .read_cache = true});
  std::atomic<gmm::GlobalAddr> block{0};
  std::atomic<std::int64_t> acked{0};
  std::atomic<bool> done{false};
  std::atomic<int> stale_reads{0};
  std::atomic<int> reads{0};

  rt.registry().Register("writer", [&](Task& t) {
    ASSERT_EQ(t.node(), kHome);
    for (std::int64_t v = 1; v <= kWrites; ++v) {
      t.WriteValue(block.load(), v);
      acked.store(v);
    }
    done.store(true);
  });
  rt.registry().Register("reader", [&](Task& t) {
    ASSERT_NE(t.node(), kHome);
    while (!done.load()) {
      const std::int64_t floor = acked.load();
      if (t.ReadValue<std::int64_t>(block.load()) < floor) ++stale_reads;
      ++reads;
    }
  });
  rt.registry().Register("main", [&](Task& t) {
    block.store(t.AllocOnNode(64, kHome).value());
    t.WriteValue<std::int64_t>(block.load(), 0);
    std::vector<Gpid> readers;
    for (NodeId n : {0, 2, 3, 4, 5, 6, 7}) {
      readers.push_back(t.Spawn("reader", {}, n).value());
    }
    const Gpid writer = t.Spawn("writer", {}, kHome).value();
    ASSERT_TRUE(t.Join(writer).ok());
    for (Gpid g : readers) ASSERT_TRUE(t.Join(g).ok());
  });
  rt.RunMain("main");

  EXPECT_EQ(stale_reads.load(), 0) << "of " << reads.load() << " reads";
  std::uint64_t hits = 0;
  for (const MetricsSnapshot& snap : rt.ClusterStats()) {
    hits += Get(snap, "dsm.cache_hits");
  }
  EXPECT_GT(hits, 0u);  // the readers really read through their caches
}

// Another node's thread runs a host's receive hook (in-process delivery
// happens on the sender's thread), so a runtime must stop every host before
// destroying any. Each round tears the cluster down while heartbeats and
// late frames are still crossing it; odd rounds hold some frames back so
// responses surface during teardown too. Run under ASan/TSan.
TEST(NodeHostTeardown, ConstructRunDestroyLoopWithFramesInFlight) {
  for (int round = 0; round < 12; ++round) {
    ThreadedOptions opts;
    opts.num_nodes = 4;
    opts.heartbeat_period_ms = 1;
    opts.heartbeat_timeout_ms = 10000;
    // A held frame to self waits for the next one on its loopback link: a
    // short deadline resends rather than idling out the default.
    opts.rpc_deadline_ms = 50;
    if (round % 2 == 1) {
      opts.fault_plan.seed = static_cast<std::uint64_t>(round);
      opts.fault_plan.delay_p = 0.05;
      opts.fault_plan.delay_frames = 2;
    }
    ThreadedRuntime rt(opts);
    std::atomic<gmm::GlobalAddr> base{0};
    std::atomic<int> failures{0};
    rt.registry().Register("worker", [&](Task& t) {
      const gmm::GlobalAddr addr = base.load();
      for (int i = 0; i < 40; ++i) {
        const auto slot = addr + static_cast<gmm::GlobalAddr>(
                                     8 * ((t.node() + i) % 32));
        std::int64_t v = 0;
        if (!t.Read(slot, &v, sizeof(v)).ok()) ++failures;
        if (!t.AtomicFetchAdd(slot, 1).ok()) ++failures;
      }
      t.Print("worker on node " + std::to_string(t.node()) + " done");
    });
    rt.registry().Register("main", [&](Task& t) {
      base.store(t.AllocStriped(256, 6).value());
      // The workers are not joined: the run ends with the last of them, and
      // their console lines, heartbeats and held frames are still in flight.
      for (NodeId n = 0; n < 4; ++n) ASSERT_TRUE(t.Spawn("worker", {}, n).ok());
    });
    rt.RunMain("main");
    EXPECT_EQ(failures.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace dse
