// Threaded-runtime integration: global memory semantics across homes,
// synchronization correctness under real concurrency, SSI services, and a
// randomized coherence stress test against a reference memory model.
#include <atomic>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "dse/threaded_runtime.h"

namespace dse {
namespace {

// Runs `fn` as the main task of a fresh runtime.
void RunMain(int nodes, bool cache, std::function<void(Task&)> fn) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = nodes, .read_cache = cache});
  rt.registry().Register("test.main", std::move(fn));
  rt.RunMain("test.main");
}

TEST(RuntimeGm, StripedReadWriteSpansHomes) {
  RunMain(4, false, [](Task& t) {
    auto addr = t.AllocStriped(4096, 6).value();  // 64 stripes over 4 homes
    std::vector<std::uint8_t> data(4096);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7);
    }
    ASSERT_TRUE(t.Write(addr, data.data(), data.size()).ok());
    std::vector<std::uint8_t> out(4096);
    ASSERT_TRUE(t.Read(addr, out.data(), out.size()).ok());
    EXPECT_EQ(out, data);
  });
}

TEST(RuntimeGm, UnalignedSubRange) {
  RunMain(3, false, [](Task& t) {
    auto addr = t.AllocStriped(1000, 6).value();
    std::vector<std::uint8_t> data(333, 0x5C);
    ASSERT_TRUE(t.Write(addr + 111, data.data(), data.size()).ok());
    std::vector<std::uint8_t> out(1000);
    ASSERT_TRUE(t.Read(addr, out.data(), out.size()).ok());
    EXPECT_EQ(out[110], 0);
    EXPECT_EQ(out[111], 0x5C);
    EXPECT_EQ(out[443], 0x5C);
    EXPECT_EQ(out[444], 0);
  });
}

TEST(RuntimeGm, LargeTransfer) {
  RunMain(2, false, [](Task& t) {
    const std::uint64_t size = 2 * 1024 * 1024;
    auto addr = t.AllocStriped(size, 16).value();
    std::vector<std::uint8_t> data(size);
    for (size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
    }
    ASSERT_TRUE(t.Write(addr, data.data(), size).ok());
    std::vector<std::uint8_t> out(size);
    ASSERT_TRUE(t.Read(addr, out.data(), size).ok());
    EXPECT_EQ(out, data);
  });
}

TEST(RuntimeGm, DistinctAllocationsAreDisjoint) {
  RunMain(2, false, [](Task& t) {
    auto a = t.AllocStriped(256, 6).value();
    auto b = t.AllocStriped(256, 6).value();
    auto c = t.AllocOnNode(256, 1).value();
    const std::int64_t va = 1, vb = 2, vc = 3;
    t.WriteValue(a, va);
    t.WriteValue(b, vb);
    t.WriteValue(c, vc);
    EXPECT_EQ(t.ReadValue<std::int64_t>(a), 1);
    EXPECT_EQ(t.ReadValue<std::int64_t>(b), 2);
    EXPECT_EQ(t.ReadValue<std::int64_t>(c), 3);
  });
}

TEST(RuntimeGm, AtomicContention) {
  // 4 workers x 200 increments must land exactly.
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4});
  rt.registry().Register("inc", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t counter = 0;
    ASSERT_TRUE(r.ReadU64(&counter).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(t.AtomicFetchAdd(counter, 1).ok());
    }
  });
  rt.registry().Register("main", [](Task& t) {
    auto counter = t.AllocOnNode(8, 2).value();
    std::vector<Gpid> gs;
    for (int i = 0; i < 4; ++i) {
      ByteWriter w;
      w.WriteU64(counter);
      gs.push_back(t.Spawn("inc", w.TakeBuffer(), i).value());
    }
    for (Gpid g : gs) (void)t.Join(g);
    EXPECT_EQ(t.ReadValue<std::int64_t>(counter), 800);
  });
  rt.RunMain("main");
}

TEST(RuntimeSync, LockGivesMutualExclusion) {
  // Workers do read-modify-write under a lock; without mutual exclusion the
  // lost-update race would drop increments.
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4});
  rt.registry().Register("rmw", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t cell = 0;
    ASSERT_TRUE(r.ReadU64(&cell).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(t.Lock(99).ok());
      const auto v = t.ReadValue<std::int64_t>(cell);
      t.WriteValue<std::int64_t>(cell, v + 1);
      ASSERT_TRUE(t.Unlock(99).ok());
    }
  });
  rt.registry().Register("main", [](Task& t) {
    auto cell = t.AllocOnNode(8, 1).value();
    std::vector<Gpid> gs;
    for (int i = 0; i < 4; ++i) {
      ByteWriter w;
      w.WriteU64(cell);
      gs.push_back(t.Spawn("rmw", w.TakeBuffer(), i).value());
    }
    for (Gpid g : gs) (void)t.Join(g);
    EXPECT_EQ(t.ReadValue<std::int64_t>(cell), 200);
  });
  rt.RunMain("main");
}

TEST(RuntimeSync, BarrierSeparatesPhases) {
  // Phase 1: everyone writes its slot. Barrier. Phase 2: everyone reads all
  // slots — must see every phase-1 write.
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4});
  rt.registry().Register("phased", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t base = 0;
    std::int32_t index = 0, parties = 0;
    ASSERT_TRUE(r.ReadU64(&base).ok());
    ASSERT_TRUE(r.ReadI32(&index).ok());
    ASSERT_TRUE(r.ReadI32(&parties).ok());
    t.WriteValue<std::int64_t>(base + static_cast<std::uint64_t>(index) * 8,
                               index + 1);
    ASSERT_TRUE(t.Barrier(5, parties).ok());
    std::int64_t sum = 0;
    for (int i = 0; i < parties; ++i) {
      sum += t.ReadValue<std::int64_t>(base + static_cast<std::uint64_t>(i) * 8);
    }
    EXPECT_EQ(sum, parties * (parties + 1) / 2);
  });
  rt.registry().Register("main", [](Task& t) {
    const int parties = 4;
    auto base = t.AllocStriped(parties * 8, 6).value();
    std::vector<Gpid> gs;
    for (int i = 0; i < parties; ++i) {
      ByteWriter w;
      w.WriteU64(base);
      w.WriteI32(i);
      w.WriteI32(parties);
      gs.push_back(t.Spawn("phased", w.TakeBuffer(), i).value());
    }
    for (Gpid g : gs) (void)t.Join(g);
  });
  rt.RunMain("main");
}

TEST(RuntimeSsi, SpawnUnknownTaskFails) {
  RunMain(2, false, [](Task& t) {
    auto r = t.Spawn("no.such.task", {});
    EXPECT_FALSE(r.ok());
    // A bad task name is the caller's mistake, not a missing resource.
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  });
}

TEST(RuntimeSsi, JoinUnknownGpidFails) {
  RunMain(2, false, [](Task& t) {
    EXPECT_FALSE(t.Join(MakeGpid(1, 12345)).ok());
  });
}

TEST(RuntimeSsi, JoinTwiceReturnsSameResult) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 2});
  rt.registry().Register("answer", [](Task& t) {
    ByteWriter w;
    w.WriteI64(42);
    t.SetResult(w.TakeBuffer());
  });
  rt.registry().Register("main", [](Task& t) {
    const Gpid g = t.Spawn("answer", {}, 1).value();
    const auto a = t.Join(g).value();
    const auto b = t.Join(g).value();  // records persist after exit
    EXPECT_EQ(a, b);
  });
  rt.RunMain("main");
}

TEST(RuntimeSsi, SpawnPlacementHonorsHint) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 3});
  rt.registry().Register("where", [](Task& t) {
    ByteWriter w;
    w.WriteI32(t.node());
    t.SetResult(w.TakeBuffer());
  });
  rt.registry().Register("main", [](Task& t) {
    for (int n = 0; n < t.num_nodes(); ++n) {
      const Gpid g = t.Spawn("where", {}, n).value();
      EXPECT_EQ(GpidNode(g), n);
      const auto result = t.Join(g).value();
      ByteReader r(result.data(), result.size());
      std::int32_t node = 0;
      ASSERT_TRUE(r.ReadI32(&node).ok());
      EXPECT_EQ(node, n);
    }
  });
  rt.RunMain("main");
}

TEST(RuntimeSsi, NestedSpawn) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 3});
  rt.registry().Register("leaf", [](Task& t) {
    ByteWriter w;
    w.WriteI64(t.node() * 10);
    t.SetResult(w.TakeBuffer());
  });
  rt.registry().Register("mid", [](Task& t) {
    const Gpid g = t.Spawn("leaf", {}, 2).value();
    t.SetResult(t.Join(g).value());  // forward the leaf's result
  });
  rt.registry().Register("main", [](Task& t) {
    const Gpid g = t.Spawn("mid", {}, 1).value();
    const auto result = t.Join(g).value();
    ByteReader r(result.data(), result.size());
    std::int64_t v = 0;
    ASSERT_TRUE(r.ReadI64(&v).ok());
    EXPECT_EQ(v, 20);
  });
  rt.RunMain("main");
}

// --- Coherence: randomized stress vs a reference model ----------------------

// Workers apply random 8-byte reads/writes under a global lock (so the
// reference order is well-defined) with the read cache ON; every read must
// match a mirrored reference array updated under the same lock.
class CoherenceStress : public ::testing::TestWithParam<int> {};

TEST_P(CoherenceStress, CachedReadsNeverStale) {
  const int nodes = GetParam();
  ThreadedRuntime rt(
      ThreadedOptions{.num_nodes = nodes, .read_cache = true});

  constexpr int kSlots = 32;
  static std::atomic<std::int64_t> reference[kSlots];
  for (auto& r : reference) r = 0;

  rt.registry().Register("stress", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t base = 0;
    std::uint64_t seed = 0;
    ASSERT_TRUE(r.ReadU64(&base).ok());
    ASSERT_TRUE(r.ReadU64(&seed).ok());
    Rng rng(seed);
    for (int op = 0; op < 120; ++op) {
      const auto slot = rng.NextBelow(kSlots);
      const auto addr = base + slot * 8;
      ASSERT_TRUE(t.Lock(1).ok());
      if (rng.NextBool(0.4)) {
        const auto v = static_cast<std::int64_t>(rng.NextU64() >> 1);
        t.WriteValue<std::int64_t>(addr, v);
        reference[slot].store(v, std::memory_order_seq_cst);
      } else {
        const auto got = t.ReadValue<std::int64_t>(addr);
        const auto want = reference[slot].load(std::memory_order_seq_cst);
        ASSERT_EQ(got, want) << "stale cached read of slot " << slot;
      }
      ASSERT_TRUE(t.Unlock(1).ok());
    }
  });

  rt.registry().Register("main", [&](Task& t) {
    auto base = t.AllocStriped(kSlots * 8, 6).value();  // 8 slots per block
    std::vector<Gpid> gs;
    for (int i = 0; i < t.num_nodes(); ++i) {
      ByteWriter w;
      w.WriteU64(base);
      w.WriteU64(1000 + static_cast<std::uint64_t>(i));
      gs.push_back(t.Spawn("stress", w.TakeBuffer(), i).value());
    }
    for (Gpid g : gs) (void)t.Join(g);
  });
  rt.RunMain("main");
}

INSTANTIATE_TEST_SUITE_P(Nodes, CoherenceStress, ::testing::Values(2, 3, 5));

TEST(RuntimeCache, RepeatedReadsHitCache) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 2, .read_cache = true});
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(64, 1).value();
    std::uint8_t buf[64];
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(t.Read(addr, buf, sizeof(buf)).ok());
    }
  });
  rt.RunMain("main");
  EXPECT_GE(rt.kernel_stats(0).cache_hits, 9u);
}

TEST(RuntimeCache, WriteInvalidatesRemoteCache) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 3, .read_cache = true});
  rt.registry().Register("writer", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t addr = 0;
    ASSERT_TRUE(r.ReadU64(&addr).ok());
    t.WriteValue<std::int64_t>(addr, 777);
  });
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(8, 1).value();
    // Cache it locally (node 0).
    EXPECT_EQ(t.ReadValue<std::int64_t>(addr), 0);
    // A worker on node 2 overwrites it; our copy must be invalidated.
    ByteWriter w;
    w.WriteU64(addr);
    const Gpid g = t.Spawn("writer", w.TakeBuffer(), 2).value();
    (void)t.Join(g);
    EXPECT_EQ(t.ReadValue<std::int64_t>(addr), 777);
  });
  rt.RunMain("main");
}

TEST(RuntimeSsi, NameServicePublishLookup) {
  RunMain(3, false, [](Task& t) {
    auto addr = t.AllocStriped(64, 6).value();
    ASSERT_TRUE(t.PublishName("shared.table", addr).ok());
    EXPECT_EQ(t.LookupName("shared.table").value(), addr);
    // Double publish is rejected.
    EXPECT_EQ(t.PublishName("shared.table", 1).code(),
              ErrorCode::kAlreadyExists);
    // Unknown names are kNotFound.
    EXPECT_EQ(t.LookupName("nope").status().code(), ErrorCode::kNotFound);
  });
}

TEST(RuntimeSsi, NameRendezvousAcrossNodes) {
  // A producer publishes a buffer under a name; a consumer on another node
  // discovers it purely by name — no address passed through spawn args.
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 3});
  rt.registry().Register("producer", [](Task& t) {
    auto addr = t.AllocOnNode(8, t.node()).value();
    t.WriteValue<std::int64_t>(addr, 4242);
    ASSERT_TRUE(t.PublishName("rendezvous.cell", addr).ok());
  });
  rt.registry().Register("consumer", [](Task& t) {
    const auto addr = t.WaitForName("rendezvous.cell");
    EXPECT_EQ(t.ReadValue<std::int64_t>(addr), 4242);
  });
  rt.registry().Register("main", [](Task& t) {
    const Gpid p = t.Spawn("producer", {}, 1).value();
    const Gpid c = t.Spawn("consumer", {}, 2).value();
    (void)t.Join(p);
    (void)t.Join(c);
  });
  rt.RunMain("main");
}

TEST(RuntimeSsi, LeastLoadedPlacementAvoidsBusyNodes) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4});
  rt.registry().Register("camper", [](Task& t) {
    // Stays alive until main (the 5th party) releases the barrier.
    (void)t.Barrier(77, 5);
  });
  rt.registry().Register("probe", [](Task& t) {
    ByteWriter w;
    w.WriteI32(t.node());
    t.SetResult(w.TakeBuffer());
  });
  rt.registry().Register("main", [](Task& t) {
    // Occupy nodes 1, 2 and 3 with campers; node 0 runs only main. The
    // campers block on a 5-party barrier that main enters only at the end,
    // so every load query below sees a stable cluster.
    std::vector<Gpid> campers;
    for (int n = 1; n <= 3; ++n) {
      campers.push_back(t.Spawn("camper", {}, n).value());
    }
    // Nodes 1..3 run 1 task each; node 0 runs main (1 task) — the tie
    // breaks toward the lowest id.
    const Gpid probe = t.Spawn("probe", {}, kLeastLoaded).value();
    EXPECT_EQ(GpidNode(probe), 0);
    (void)t.Join(probe);

    // Camp on node 0 too: node 0 now runs 2 (main + camper), nodes 1..3
    // run 1 — the probe must land on node 1.
    campers.push_back(t.Spawn("camper", {}, 0).value());
    const Gpid probe2 = t.Spawn("probe", {}, kLeastLoaded).value();
    EXPECT_EQ(GpidNode(probe2), 1);
    (void)t.Join(probe2);

    // Release the campers: main is the 5th barrier party.
    (void)t.Barrier(77, 5);
    for (Gpid g : campers) (void)t.Join(g);
  });
  rt.RunMain("main");
}

TEST(RuntimeStats, GmmCountersAdvance) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 2});
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(64, 1).value();
    std::uint8_t b[8] = {1};
    (void)t.Write(addr, b, 8);
    (void)t.Read(addr, b, 8);
    (void)t.AtomicFetchAdd(addr + 8, 1);
  });
  rt.RunMain("main");
  EXPECT_GE(rt.gmm_stats(1).reads, 1u);
  EXPECT_GE(rt.gmm_stats(1).writes, 1u);
  EXPECT_GE(rt.gmm_stats(1).atomics, 1u);
  EXPECT_GE(rt.gmm_stats(0).allocs, 1u);
}

// Reads one numeric field (e.g. "Threads:") of /proc/self/status.
long ProcStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) return std::stol(line.substr(field.size()));
  }
  return -1;
}

// A finished task's thread is joined on the next spawn, not only when the
// runtime drains: thousands of sequential spawn+join pairs in one RunMain
// keep the process's thread count and address space flat. An exited but
// unjoined thread no longer counts in "Threads:" yet keeps its stack mapped
// (8 MiB by default), so 3000 of them would add ~24 GiB of VmSize; the few
// threads still exiting plus allocator arenas stay far below 1 GiB.
TEST(RuntimeTasks, FinishedTaskThreadsAreJoinedAsTheyGo) {
  if (ProcStatus("VmSize:") < 0) GTEST_SKIP() << "no /proc/self/status";
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 2});
  rt.registry().Register("noop", [](Task&) {});
  rt.registry().Register("main", [](Task& t) {
    auto pairs = [&](int n) {
      for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(t.Join(t.Spawn("noop", {}, 1).value()).ok());
      }
    };
    pairs(50);
    const long threads_before = ProcStatus("Threads:");
    const long vm_before_kb = ProcStatus("VmSize:");
    pairs(3000);
    EXPECT_LE(ProcStatus("Threads:"), threads_before + 8);
    EXPECT_LT(ProcStatus("VmSize:") - vm_before_kb, 1L << 20);
  });
  rt.RunMain("main");
}

}  // namespace
}  // namespace dse
