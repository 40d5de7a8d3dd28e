// Fault-injection suite: the tests that justify calling the data plane
// failure-aware.
//
// Layers covered, bottom up:
//   * FaultPlan parsing (the dse_run --fault-plan format),
//   * FaultInjector decision streams (determinism, kills, severs, delays),
//   * end-to-end on the ThreadedRuntime: reads retry through drops, writes
//     dedupe under duplication, severed links surface kTimeout instead of
//     hanging, heartbeats declare a killed node dead,
//   * end-to-end on the SimRuntime: a seeded fault schedule replays
//     bit-identically, and deadlines bound waits in virtual time.
//
// The acceptance program is a red-black Gauss-Seidel sweep: within one color
// the updates only read the other color, so the parallel result is exactly
// (bit-for-bit) the serial one — any lost, duplicated or re-executed write
// shows up as a mismatch.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/status.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "net/fault.h"
#include "net/inproc.h"
#include "platform/profile.h"

namespace dse {
namespace {

using net::FaultAction;
using net::FaultInjector;
using net::FaultPlan;
using net::ParseFaultPlan;

std::uint64_t SumCounter(const std::vector<MetricsSnapshot>& per_node,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& snap : per_node) {
    if (const auto it = snap.find(name); it != snap.end()) total += it->second;
  }
  return total;
}

std::uint64_t Get(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

// --- Plan parsing -----------------------------------------------------------

TEST(FaultPlanParse, FullGrammar) {
  auto plan = ParseFaultPlan(
      "# a comment line\n"
      "seed 42\n"
      "drop 0.05   # trailing comment\n"
      "truncate 0.01\n"
      "dup 0.1\n"
      "delay 0.02 3\n"
      "reorder 0.02\n"
      "\n"
      "sever 0 1 after 100\n"
      "kill 3 at 60\n"
      "drain 2 after 250\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_DOUBLE_EQ(plan->drop_p, 0.05);
  EXPECT_DOUBLE_EQ(plan->truncate_p, 0.01);
  EXPECT_DOUBLE_EQ(plan->dup_p, 0.1);
  EXPECT_DOUBLE_EQ(plan->delay_p, 0.02);
  EXPECT_EQ(plan->delay_frames, 3);
  EXPECT_DOUBLE_EQ(plan->reorder_p, 0.02);
  ASSERT_EQ(plan->severs.size(), 1u);
  EXPECT_EQ(plan->severs[0].a, 0);
  EXPECT_EQ(plan->severs[0].b, 1);
  EXPECT_EQ(plan->severs[0].after, 100u);
  ASSERT_EQ(plan->kills.size(), 1u);
  EXPECT_EQ(plan->kills[0].node, 3);
  EXPECT_EQ(plan->kills[0].at, 60u);
  ASSERT_EQ(plan->drains.size(), 1u);
  EXPECT_EQ(plan->drains[0].node, 2);
  EXPECT_EQ(plan->drains[0].after, 250u);
  EXPECT_TRUE(plan->enabled());
}

TEST(FaultPlanParse, EmptyPlanParsesDisabled) {
  auto plan = ParseFaultPlan("# nothing but comments\n\n");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->enabled());
}

TEST(FaultPlanParse, RejectsMalformedInput) {
  const char* bad[] = {
      "panic 0.5\n",             // unknown directive
      "drop lots\n",             // not a number
      "drop 1.5\n",              // probability out of range
      "drop -0.1\n",             // probability out of range
      "drop\n",                  // missing argument
      "delay 0.1\n",             // delay needs a frame count
      "delay 0.1 0\n",           // zero frame count
      "sever 0 1 100\n",         // missing 'after'
      "sever 0 0 after 5\n",     // self-sever
      "kill 3 60\n",             // missing 'at'
      "drain 3 100\n",           // missing 'after'
      "drain 3 after\n",         // missing frame count
      "drain 3 after soon\n",    // bad integer
      "drain after 5\n",         // missing node
      "seed nope\n",             // bad integer
  };
  for (const char* text : bad) {
    auto plan = ParseFaultPlan(text);
    EXPECT_FALSE(plan.ok()) << "accepted: " << text;
    EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidArgument) << text;
  }
}

// --- Injector decision streams ----------------------------------------------

TEST(FaultInjectorT, IdenticalPlansReplayIdenticalDecisions) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_p = 0.2;
  plan.truncate_p = 0.05;
  plan.dup_p = 0.1;
  plan.delay_p = 0.1;
  plan.delay_frames = 2;
  plan.reorder_p = 0.05;

  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 500; ++i) {
    const NodeId src = static_cast<NodeId>(i % 3);
    const NodeId dst = static_cast<NodeId>(3 - i % 3);
    const std::uint64_t bytes = 16 + static_cast<std::uint64_t>(i % 100);
    const FaultAction va = a.OnSend(src, dst, bytes);
    const FaultAction vb = b.OnSend(src, dst, bytes);
    EXPECT_EQ(va.deliver, vb.deliver) << "frame " << i;
    EXPECT_EQ(va.duplicate, vb.duplicate) << "frame " << i;
    EXPECT_EQ(va.truncate_to, vb.truncate_to) << "frame " << i;
    EXPECT_EQ(va.delay_frames, vb.delay_frames) << "frame " << i;
  }
  EXPECT_EQ(a.Counters(), b.Counters());
}

// A link's verdict stream depends only on (seed, src, dst) and the link's
// own frame count — traffic on other links must not shift it. This is what
// lets one plan mean the same thing on fabrics with different global
// interleavings.
TEST(FaultInjectorT, LinkStreamsAreInterleavingIndependent) {
  FaultPlan plan;
  plan.seed = 9;
  plan.drop_p = 0.3;
  plan.dup_p = 0.2;

  FaultInjector quiet(plan);  // only (0,1) traffic
  FaultInjector noisy(plan);  // (0,1) traffic interleaved with (2,3)
  for (int i = 0; i < 200; ++i) {
    const FaultAction va = quiet.OnSend(0, 1, 64);
    (void)noisy.OnSend(2, 3, 512);
    const FaultAction vb = noisy.OnSend(0, 1, 64);
    EXPECT_EQ(va.deliver, vb.deliver) << "frame " << i;
    EXPECT_EQ(va.duplicate, vb.duplicate) << "frame " << i;
  }
}

TEST(FaultInjectorT, KillDiscardsAllTrafficFromThreshold) {
  FaultPlan plan;  // no probabilistic faults: verdicts are pure schedule
  plan.kills.push_back({3, 10});
  FaultInjector inj(plan);

  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(inj.OnSend(0, 1, 8).deliver);
  }
  EXPECT_FALSE(inj.NodeDead(3));
  // The 10th frame trips the schedule; traffic not involving node 3 is
  // unaffected, every frame from or to node 3 is discarded.
  EXPECT_TRUE(inj.OnSend(0, 1, 8).deliver);
  EXPECT_TRUE(inj.NodeDead(3));
  EXPECT_FALSE(inj.OnSend(0, 3, 8).deliver);
  EXPECT_FALSE(inj.OnSend(3, 0, 8).deliver);
  EXPECT_TRUE(inj.OnSend(1, 2, 8).deliver);

  const MetricsSnapshot c = inj.Counters();
  EXPECT_EQ(Get(c, "fault.injected.dead_drop"), 2u);
  EXPECT_EQ(Get(c, "fault.killed_nodes"), 1u);
}

TEST(FaultInjectorT, SeverCutsBothDirectionsOfOnePair) {
  FaultPlan plan;
  plan.severs.push_back({0, 1, 4});
  FaultInjector inj(plan);

  // The pair carries `after` frames (both directions count), then cuts.
  EXPECT_TRUE(inj.OnSend(0, 1, 8).deliver);
  EXPECT_TRUE(inj.OnSend(1, 0, 8).deliver);
  EXPECT_TRUE(inj.OnSend(0, 1, 8).deliver);
  EXPECT_TRUE(inj.OnSend(1, 0, 8).deliver);
  EXPECT_FALSE(inj.OnSend(0, 1, 8).deliver);
  EXPECT_FALSE(inj.OnSend(1, 0, 8).deliver);
  // Other pairs keep flowing.
  EXPECT_TRUE(inj.OnSend(0, 2, 8).deliver);
  EXPECT_EQ(Get(inj.Counters(), "fault.injected.sever_drop"), 2u);
}

TEST(DelayLineT, FramesAgeByLaterTrafficAndReleaseInHoldOrder) {
  net::DelayLine<int> line;
  line.Hold(0, 1, 100, 2);
  line.Hold(0, 1, 200, 1);
  // First later frame: the 2-frame hold has one to go, the 1-frame hold is
  // due — but release order is hold order, so nothing can overtake 100.
  EXPECT_TRUE(line.OnFramePassed(0, 1).empty());
  const std::vector<int> due = line.OnFramePassed(0, 1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 100);
  EXPECT_EQ(due[1], 200);
  EXPECT_TRUE(line.empty());
  // Traffic on other links ages nothing.
  line.Hold(2, 3, 7, 1);
  EXPECT_TRUE(line.OnFramePassed(0, 1).empty());
  EXPECT_EQ(line.OnFramePassed(2, 3).size(), 1u);
}

// A frame to self that its sender would handle in place still draws a
// verdict: it counts toward the global frame schedule, and only a clean one
// skips the wire — a dead node's local frame is carried (and dropped), never
// handled in place.
TEST(FaultyEndpointT, LoopbackVerdictsKeepLocalFramesUnderThePlan) {
  FaultPlan plan;
  plan.kills.push_back({0, 3});
  FaultInjector inj(plan);
  net::InProcFabric fabric(2);
  net::FaultyEndpoint ep(&fabric.endpoint(0), &inj);
  int encodes = 0;
  const net::Endpoint::EncodeFn encode = [&encodes] {
    ++encodes;
    return std::vector<std::uint8_t>{1, 2, 3};
  };

  EXPECT_FALSE(ep.ShapeLoopback(encode).has_value());  // frame 1: clean
  EXPECT_FALSE(ep.ShapeLoopback(encode).has_value());  // frame 2: clean
  const std::optional<Status> carried = ep.ShapeLoopback(encode);  // kill
  ASSERT_TRUE(carried.has_value());
  EXPECT_TRUE(carried->ok());  // a dropped frame looks sent to its sender
  EXPECT_EQ(encodes, 3);
  EXPECT_FALSE(fabric.endpoint(0).TryRecv().has_value());  // dropped
  EXPECT_EQ(ep.wire_counts().msgs_sent, 0u);  // in-place frames never sent

  const MetricsSnapshot c = inj.Counters();
  EXPECT_EQ(Get(c, "fault.frames_seen"), 3u);
  EXPECT_EQ(Get(c, "fault.injected.dead_drop"), 1u);
}

// A held loopback frame is released by the next one on its link, so that
// next frame is carried behind it even when its own verdict is clean.
TEST(FaultyEndpointT, CleanLoopbackFrameBehindAHeldOneIsCarried) {
  FaultPlan plan;
  plan.delay_p = 0.5;
  plan.delay_frames = 1;
  // A seed whose loopback stream holds the first frame and passes the next.
  for (plan.seed = 1;; ++plan.seed) {
    FaultInjector probe(plan);
    if (probe.OnSend(0, 0, 1).delay_frames > 0 &&
        probe.OnSend(0, 0, 1).deliver) {
      break;
    }
  }
  FaultInjector inj(plan);
  net::InProcFabric fabric(1);
  net::FaultyEndpoint ep(&fabric.endpoint(0), &inj);
  const net::Endpoint::EncodeFn encode = [] {
    return std::vector<std::uint8_t>{9};
  };
  ASSERT_TRUE(ep.ShapeLoopback(encode).has_value());  // held
  EXPECT_FALSE(fabric.endpoint(0).TryRecv().has_value());
  const std::optional<Status> second = ep.ShapeLoopback(encode);
  ASSERT_TRUE(second.has_value());  // clean, but carried behind the first
  EXPECT_TRUE(second->ok());
  EXPECT_TRUE(fabric.endpoint(0).TryRecv().has_value());
  EXPECT_TRUE(fabric.endpoint(0).TryRecv().has_value());
  EXPECT_FALSE(fabric.endpoint(0).TryRecv().has_value());
}

// --- Threaded runtime: drops, dups, severs, kills ---------------------------

// Block reads against a remote home succeed through a 10% drop rate by
// resending the same req_id on each expired deadline.
TEST(FaultThreaded, ReadsRetryThroughDrops) {
  ThreadedOptions o;
  o.num_nodes = 2;
  o.fault_plan.seed = 11;
  o.fault_plan.drop_p = 0.1;
  o.rpc_deadline_ms = 50;
  o.rpc_max_attempts = 10;
  o.rpc_backoff_base_ms = 1;
  o.heartbeat_period_ms = -1;  // pure loss, nobody dies: prober off
  ThreadedRuntime rt(o);

  constexpr int kWords = 512;  // 4 KiB block homed away from the reader
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(kWords * 8, 1);
    ASSERT_TRUE(addr.ok());
    std::vector<std::uint64_t> ref(kWords);
    for (int i = 0; i < kWords; ++i) {
      ref[static_cast<size_t>(i)] = 0x9E3779B97F4A7C15ull * (i + 1);
    }
    t.WriteArray(*addr, ref.data(), ref.size());

    std::int64_t mismatches = 0;
    std::vector<std::uint64_t> got(kWords);
    for (int round = 0; round < 60; ++round) {
      t.ReadArray(*addr, got.data(), got.size());
      if (std::memcmp(got.data(), ref.data(), kWords * 8) != 0) ++mismatches;
    }
    ByteWriter w;
    w.WriteI64(mismatches);
    t.SetResult(w.TakeBuffer());
  });

  const std::vector<std::uint8_t> result = rt.RunMain("main");
  ByteReader r(result.data(), result.size());
  std::int64_t mismatches = -1;
  ASSERT_TRUE(r.ReadI64(&mismatches).ok());
  EXPECT_EQ(mismatches, 0);

  // The wire really was lossy, and the data plane really did retry.
  EXPECT_GE(Get(rt.FaultCounters(), "fault.injected.drop"), 1u);
  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "rpc.timeout"), 1u);
  EXPECT_GE(SumCounter(stats, "rpc.retry"), 1u);
}

// Half of all frames are duplicated; every duplicated mutating request must
// hit the home's at-most-once cache instead of re-executing, so N atomic
// increments still sum to exactly N.
TEST(FaultThreaded, DuplicatedWritesApplyExactlyOnce) {
  ThreadedOptions o;
  o.num_nodes = 3;
  o.fault_plan.seed = 5;
  o.fault_plan.dup_p = 0.5;
  o.rpc_deadline_ms = 1000;  // dups need dedupe, not retries
  o.heartbeat_period_ms = -1;
  ThreadedRuntime rt(o);

  constexpr std::int64_t kIncrements = 64;
  rt.registry().Register("main", [](Task& t) {
    auto counter = t.AllocOnNode(8, 1);
    ASSERT_TRUE(counter.ok());
    t.WriteValue<std::int64_t>(*counter, 0);
    for (std::int64_t i = 0; i < kIncrements; ++i) {
      auto old = t.AtomicFetchAdd(*counter, 1);
      ASSERT_TRUE(old.ok());
    }
    ByteWriter w;
    w.WriteI64(t.ReadValue<std::int64_t>(*counter));
    t.SetResult(w.TakeBuffer());
  });

  const std::vector<std::uint8_t> result = rt.RunMain("main");
  ByteReader r(result.data(), result.size());
  std::int64_t total = -1;
  ASSERT_TRUE(r.ReadI64(&total).ok());
  EXPECT_EQ(total, kIncrements);

  EXPECT_GE(Get(rt.FaultCounters(), "fault.injected.dup"), 1u);
  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "rpc.dedupe.replays") +
                SumCounter(stats, "rpc.dedupe.drops"),
            1u);
}

// A fully severed link makes the call's deadline machinery the only way out:
// the write must return kTimeout after its bounded attempts, never hang.
TEST(FaultThreaded, SeveredLinkSurfacesTimeoutNotHang) {
  ThreadedOptions o;
  o.num_nodes = 2;
  o.fault_plan.seed = 3;
  o.fault_plan.severs.push_back({0, 1, 0});  // partitioned from the start
  o.rpc_deadline_ms = 50;
  o.rpc_max_attempts = 2;
  o.rpc_backoff_base_ms = 1;
  o.heartbeat_period_ms = -1;  // no liveness verdict: the deadline must act
  ThreadedRuntime rt(o);

  rt.registry().Register("main", [](Task& t) {
    // The allocator master is this node, so the alloc itself survives the
    // partition; the payload write must cross the severed link.
    auto addr = t.AllocOnNode(8, 1);
    ASSERT_TRUE(addr.ok());
    const std::int64_t v = 42;
    const auto start = std::chrono::steady_clock::now();
    const Status s = t.Write(*addr, &v, sizeof(v));
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(s.code(), ErrorCode::kTimeout) << s.ToString();
    EXPECT_LT(elapsed_ms, 5000);
    ByteWriter w;
    w.WriteI64(s.code() == ErrorCode::kTimeout ? 1 : 0);
    t.SetResult(w.TakeBuffer());
  });

  const std::vector<std::uint8_t> result = rt.RunMain("main");
  ByteReader r(result.data(), result.size());
  std::int64_t timed_out = 0;
  ASSERT_TRUE(r.ReadI64(&timed_out).ok());
  EXPECT_EQ(timed_out, 1);
  EXPECT_GE(SumCounter(rt.ClusterStats(), "rpc.timeout"), 2u);  // 2 attempts
  EXPECT_GE(Get(rt.FaultCounters(), "fault.injected.sever_drop"), 2u);
}

// A kill schedule silences a node mid-run; the heartbeat prober must notice
// within its timeout and convert later calls to that node into fast
// kUnavailable failures instead of repeated deadline waits.
TEST(FaultThreaded, HeartbeatDeclaresKilledNodeDead) {
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan.seed = 13;
  o.fault_plan.kills.push_back({3, 150});
  o.rpc_deadline_ms = 100;
  o.rpc_max_attempts = 3;
  o.rpc_backoff_base_ms = 1;
  o.heartbeat_period_ms = 20;  // timeout defaults to 5x = 100 ms
  ThreadedRuntime rt(o);

  rt.registry().Register("main", [](Task& t) {
    // Provision state on the doomed node while it is still alive (the kill
    // fires only after 150 frames; heartbeats alone take several rounds to
    // get there).
    auto addr = t.AllocOnNode(8, 3);
    ASSERT_TRUE(addr.ok());
    const std::int64_t v = 7;
    ASSERT_TRUE(t.Write(*addr, &v, sizeof(v)).ok());

    // Let the heartbeats pump the injector past the kill threshold and the
    // silence past the liveness timeout.
    std::this_thread::sleep_for(std::chrono::milliseconds(900));

    const auto start = std::chrono::steady_clock::now();
    const Status s = t.Write(*addr, &v, sizeof(v));
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable) << s.ToString();
    EXPECT_LT(elapsed_ms, 2000);
    ByteWriter w;
    w.WriteI64(s.code() == ErrorCode::kUnavailable ? 1 : 0);
    t.SetResult(w.TakeBuffer());
  });

  const std::vector<std::uint8_t> result = rt.RunMain("main");
  ByteReader r(result.data(), result.size());
  std::int64_t unavailable = 0;
  ASSERT_TRUE(r.ReadI64(&unavailable).ok());
  EXPECT_EQ(unavailable, 1);

  EXPECT_TRUE(rt.NodeKilled(3));
  EXPECT_GE(SumCounter(rt.ClusterStats(), "node.dead"), 1u);
  EXPECT_GE(Get(rt.FaultCounters(), "fault.injected.dead_drop"), 1u);
}

// --- The acceptance program: red-black Gauss-Seidel -------------------------

constexpr int kCells = 26;  // two boundary cells + 24 interior
constexpr int kSweeps = 6;
constexpr int kWorkers = 3;

std::vector<double> SerialGaussSeidel() {
  std::vector<double> x(kCells, 0.0);
  x[0] = 1.0;
  x[kCells - 1] = 2.0;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (int color = 0; color < 2; ++color) {
      for (int i = 1; i < kCells - 1; ++i) {
        if (i % 2 != color) continue;
        x[static_cast<size_t>(i)] = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                           x[static_cast<size_t>(i + 1)]);
      }
    }
  }
  return x;
}

// Workers split the interior cells; a cell's update reads only its two
// opposite-color neighbours, so within a color phase the sweep is
// order-independent and the parallel result equals the serial one exactly.
// Barrier ids are multiples of num_nodes so their home is node 0, which a
// kill schedule must never target here.
void RegisterGaussProgram(TaskRegistry& registry) {
  registry.Register("gs_worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t addr = 0;
    std::int64_t lo = 0, hi = 0;
    ASSERT_TRUE(r.ReadU64(&addr).ok());
    ASSERT_TRUE(r.ReadI64(&lo).ok());
    ASSERT_TRUE(r.ReadI64(&hi).ok());

    std::vector<double> x(kCells);
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (int color = 0; color < 2; ++color) {
        t.ReadArray(addr, x.data(), x.size());
        for (std::int64_t i = lo; i <= hi; ++i) {
          if (i % 2 != color) continue;
          const double v = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                  x[static_cast<size_t>(i + 1)]);
          t.WriteValue(addr + static_cast<std::uint64_t>(i) * 8, v);
        }
        const std::uint64_t barrier_id =
            static_cast<std::uint64_t>((sweep * 2 + color + 1)) *
            static_cast<std::uint64_t>(t.num_nodes());
        ASSERT_TRUE(t.Barrier(barrier_id, kWorkers).ok());
      }
    }
  });

  registry.Register("gs_main", [](Task& t) {
    auto addr = t.AllocOnNode(kCells * 8, 1);
    ASSERT_TRUE(addr.ok());
    std::vector<double> init(kCells, 0.0);
    init[0] = 1.0;
    init[kCells - 1] = 2.0;
    t.WriteArray(*addr, init.data(), init.size());

    // Interior split [1..8], [9..16], [17..24]; workers pinned to nodes
    // 0..2 so a kill of node 3 costs liveness, never work or data.
    std::vector<Gpid> workers;
    const int span = (kCells - 2) / kWorkers;
    for (int w = 0; w < kWorkers; ++w) {
      ByteWriter arg;
      arg.WriteU64(*addr);
      arg.WriteI64(1 + w * span);
      arg.WriteI64(w == kWorkers - 1 ? kCells - 2 : (w + 1) * span);
      auto gpid = t.Spawn("gs_worker", arg.TakeBuffer(), w);
      ASSERT_TRUE(gpid.ok());
      workers.push_back(*gpid);
    }
    for (Gpid g : workers) ASSERT_TRUE(t.Join(g).ok());

    std::vector<double> got(kCells);
    t.ReadArray(*addr, got.data(), got.size());
    const std::vector<double> want = SerialGaussSeidel();
    std::int64_t mismatches = 0;
    for (int i = 0; i < kCells; ++i) {
      if (std::memcmp(&got[static_cast<size_t>(i)],
                      &want[static_cast<size_t>(i)], 8) != 0) {
        ++mismatches;
      }
    }
    ByteWriter w;
    w.WriteI64(mismatches);
    t.SetResult(w.TakeBuffer());
  });
}

std::int64_t Mismatches(const std::vector<std::uint8_t>& result) {
  ByteReader r(result.data(), result.size());
  std::int64_t v = -1;
  EXPECT_TRUE(r.ReadI64(&v).ok());
  return v;
}

FaultPlan DropAndKillPlan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_p = 0.05;
  plan.kills.push_back({3, 400});
  return plan;
}

// Acceptance, real concurrency: 5% frame loss plus a mid-run crash of the
// bystander node, and the sweep still produces the exact serial answer —
// every lost request or response was re-driven by the retry machinery.
TEST(FaultThreaded, GaussSeidelSurvivesDropsAndCrash) {
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan = DropAndKillPlan();
  o.rpc_deadline_ms = 60;
  o.rpc_max_attempts = 10;
  o.rpc_backoff_base_ms = 1;
  ThreadedRuntime rt(o);
  RegisterGaussProgram(rt.registry());

  EXPECT_EQ(Mismatches(rt.RunMain("gs_main")), 0);

  EXPECT_TRUE(rt.NodeKilled(3));
  EXPECT_GE(Get(rt.FaultCounters(), "fault.injected.drop"), 1u);
  EXPECT_GE(SumCounter(rt.ClusterStats(), "rpc.timeout"), 1u);
}

// --- Simulated runtime: determinism and virtual-time deadlines --------------

// Acceptance, simulation: the same seeded schedule replays bit-identically —
// makespan, message counts, every per-node counter and the injector's own
// tallies — across independent runs.
TEST(FaultSim, FaultScheduleReplaysBitIdentically) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  opts.fault_plan = DropAndKillPlan();
  opts.rpc_deadline_ms = 50;
  opts.rpc_max_attempts = 10;
  opts.rpc_backoff_base_ms = 1;
  SimRuntime rt(opts);
  RegisterGaussProgram(rt.registry());

  const SimReport a = rt.Run("gs_main");
  const SimReport b = rt.Run("gs_main");
  const SimReport c = rt.Run("gs_main");

  EXPECT_EQ(Mismatches(a.main_result), 0);
  EXPECT_GE(Get(a.fault_counters, "fault.injected.drop"), 1u);
  EXPECT_EQ(Get(a.fault_counters, "fault.killed_nodes"), 1u);

  for (const SimReport* other : {&b, &c}) {
    EXPECT_EQ(a.virtual_seconds, other->virtual_seconds);
    EXPECT_EQ(a.messages, other->messages);
    EXPECT_EQ(a.wire_frames, other->wire_frames);
    EXPECT_EQ(a.main_result, other->main_result);
    EXPECT_EQ(a.node_stats, other->node_stats);
    EXPECT_EQ(a.fault_counters, other->fault_counters);
  }
}

// Deadlines bound waits in *virtual* time: a partitioned write returns
// kTimeout and the simulation still quiesces (nothing blocks forever).
TEST(FaultSim, SeveredLinkTimesOutInVirtualTime) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 2;
  opts.fault_plan.seed = 3;
  opts.fault_plan.severs.push_back({0, 1, 0});
  opts.rpc_deadline_ms = 50;
  opts.rpc_max_attempts = 2;
  opts.rpc_backoff_base_ms = 1;
  SimRuntime rt(opts);

  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(8, 1);
    ASSERT_TRUE(addr.ok());
    const std::int64_t v = 1;
    const Status s = t.Write(*addr, &v, sizeof(v));
    ByteWriter w;
    w.WriteI64(s.code() == ErrorCode::kTimeout ? 1 : 0);
    t.SetResult(w.TakeBuffer());
  });

  const SimReport report = rt.Run("main");
  ByteReader r(report.main_result.data(), report.main_result.size());
  std::int64_t timed_out = 0;
  ASSERT_TRUE(r.ReadI64(&timed_out).ok());
  EXPECT_EQ(timed_out, 1);
  // Two 50 ms attempts elapsed on the virtual clock.
  EXPECT_GE(report.virtual_seconds, 0.1);
  EXPECT_GE(SumCounter(report.node_stats, "rpc.timeout"), 2u);
}

}  // namespace
}  // namespace dse
