// Micro-benchmarks of the real (threaded) runtime's primitive operations:
// global-memory round trips, atomics, locks, barriers, spawn/join, the GMM
// data-plane fast path (batching / read-ahead / write-combining) — and the
// SIGIO doorbell versus a blocking-read service thread (the paper's
// asynchronous-I/O kernel-entry mechanism).
#include <benchmark/benchmark.h>

#include <thread>

#include "common/bytes.h"
#include "common/stopwatch.h"
#include "dse/threaded_runtime.h"
#include "osal/signal_driver.h"
#include "osal/socket.h"

namespace {

using namespace dse;

// Fixture: a 4-node threaded runtime whose main task runs the benched loop.
// The benchmark body runs inside one DSE task so each iteration exercises
// the full client -> kernel -> client path.
template <typename LoopFn>
void RunInTask(benchmark::State& state, bool read_cache, LoopFn loop) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4, .read_cache = read_cache});
  rt.registry().Register("bench.main", [&](Task& t) { loop(t, state); });
  rt.RunMain("bench.main");
}

void BM_RemoteRead64(benchmark::State& state) {
  RunInTask(state, false, [](Task& t, benchmark::State& st) {
    auto addr = t.AllocOnNode(64, 1).value();  // remote home
    std::uint8_t buf[64];
    for (auto _ : st) {
      benchmark::DoNotOptimize(t.Read(addr, buf, sizeof(buf)));
    }
  });
}
BENCHMARK(BM_RemoteRead64);

// The main task runs on node 0, so this read is served by its own kernel:
// ROADMAP's target for the in-place local path is under 2 us.
void BM_LocalRead64(benchmark::State& state) {
  RunInTask(state, false, [](Task& t, benchmark::State& st) {
    auto addr = t.AllocOnNode(64, 0).value();  // homed on the caller's node
    std::uint8_t buf[64];
    for (auto _ : st) {
      benchmark::DoNotOptimize(t.Read(addr, buf, sizeof(buf)));
    }
  });
}
BENCHMARK(BM_LocalRead64);

void BM_RemoteWrite64(benchmark::State& state) {
  RunInTask(state, false, [](Task& t, benchmark::State& st) {
    auto addr = t.AllocOnNode(64, 1).value();
    std::uint8_t buf[64] = {1};
    for (auto _ : st) {
      benchmark::DoNotOptimize(t.Write(addr, buf, sizeof(buf)));
    }
  });
}
BENCHMARK(BM_RemoteWrite64);

void BM_RemoteReadBulk(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  RunInTask(state, false, [bytes](Task& t, benchmark::State& st) {
    auto addr = t.AllocOnNode(bytes, 1).value();
    std::vector<std::uint8_t> buf(bytes);
    for (auto _ : st) {
      benchmark::DoNotOptimize(t.Read(addr, buf.data(), bytes));
    }
    st.SetBytesProcessed(static_cast<std::int64_t>(st.iterations()) *
                         static_cast<std::int64_t>(bytes));
  });
}
BENCHMARK(BM_RemoteReadBulk)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_CachedRead64(benchmark::State& state) {
  RunInTask(state, true, [](Task& t, benchmark::State& st) {
    auto addr = t.AllocOnNode(64, 1).value();
    std::uint8_t buf[64];
    for (auto _ : st) {
      benchmark::DoNotOptimize(t.Read(addr, buf, sizeof(buf)));
    }
  });
}
BENCHMARK(BM_CachedRead64);

void BM_AtomicFetchAdd(benchmark::State& state) {
  RunInTask(state, false, [](Task& t, benchmark::State& st) {
    auto addr = t.AllocOnNode(8, 1).value();
    for (auto _ : st) {
      benchmark::DoNotOptimize(t.AtomicFetchAdd(addr, 1));
    }
  });
}
BENCHMARK(BM_AtomicFetchAdd);

void BM_LockUnlock(benchmark::State& state) {
  RunInTask(state, false, [](Task& t, benchmark::State& st) {
    for (auto _ : st) {
      benchmark::DoNotOptimize(t.Lock(7));
      benchmark::DoNotOptimize(t.Unlock(7));
    }
  });
}
BENCHMARK(BM_LockUnlock);

void BM_SpawnJoin(benchmark::State& state) {
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4});
  rt.registry().Register("bench.noop", [](Task&) {});
  rt.registry().Register("bench.main", [&state](Task& t) {
    for (auto _ : state) {
      auto gpid = t.Spawn("bench.noop", {}, 2);
      benchmark::DoNotOptimize(t.Join(gpid.value()));
    }
  });
  rt.RunMain("bench.main");
}
BENCHMARK(BM_SpawnJoin);

void BM_Barrier2(benchmark::State& state) {
  // Each benchmark iteration runs a fixed batch of two-party barriers with a
  // partner task and reports the measured per-barrier time manually
  // (google-benchmark picks the iteration count, so the partner cannot
  // mirror the bench loop directly).
  constexpr std::int64_t kRounds = 500;
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 2});
  rt.registry().Register("bench.partner", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::int64_t rounds = 0;
    (void)r.ReadI64(&rounds);
    for (std::int64_t i = 0; i < rounds; ++i) {
      (void)t.Barrier(11, 2);
    }
  });
  rt.registry().Register("bench.main", [&state](Task& t) {
    ByteWriter w;
    w.WriteI64(kRounds);
    const auto arg = w.TakeBuffer();
    for (auto _ : state) {
      auto gpid = t.Spawn("bench.partner", arg, 1);
      Stopwatch watch;
      for (std::int64_t i = 0; i < kRounds; ++i) {
        (void)t.Barrier(11, 2);
      }
      state.SetIterationTime(watch.ElapsedSeconds() /
                             static_cast<double>(kRounds));
      (void)t.Join(gpid.value());
    }
  });
  rt.RunMain("bench.main");
}
BENCHMARK(BM_Barrier2)->UseManualTime();

// --- GMM data-plane fast path -----------------------------------------------

// Sequential block-stride reads over a fresh remote region each iteration —
// the ascending pattern the adaptive read-ahead detects. Arg = prefetch
// depth (0 = demand read cache only). A fresh allocation per pass keeps the
// stream cold, so the depth>0 variants show read-ahead, not cache residency.
void BM_StridedReadPrefetch(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4,
                                     .read_cache = true,
                                     .batching = true,
                                     .prefetch_depth = depth});
  rt.registry().Register("bench.main", [&state](Task& t) {
    constexpr std::uint64_t kBlock = gmm::kHomedBlockBytes;
    constexpr std::uint64_t kBlocks = 64;
    std::vector<std::uint8_t> buf(kBlock);
    for (auto _ : state) {
      auto addr = t.AllocOnNode(kBlock * kBlocks, 1).value();
      for (std::uint64_t b = 0; b < kBlocks; ++b) {
        benchmark::DoNotOptimize(t.Read(addr + b * kBlock, buf.data(), kBlock));
      }
      (void)t.Free(addr);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBlock * kBlocks));
  });
  rt.RunMain("bench.main");
}
BENCHMARK(BM_StridedReadPrefetch)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

// One wide read over a finely striped region: the access splits into many
// per-home chunks; batching coalesces them into one envelope per home.
// Arg: 0 = serial chunk requests, 1 = per-home batch envelopes.
void BM_ScatterReadBatch(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  ThreadedRuntime rt(
      ThreadedOptions{.num_nodes = 4, .batching = batch});
  rt.registry().Register("bench.main", [&state](Task& t) {
    constexpr std::uint64_t kBytes = 64 * 64;  // 64 chunks of 64 B
    auto addr = t.AllocStriped(kBytes, 6).value();
    std::vector<std::uint8_t> buf(kBytes);
    for (auto _ : state) {
      benchmark::DoNotOptimize(t.Read(addr, buf.data(), kBytes));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBytes));
  });
  rt.RunMain("bench.main");
}
BENCHMARK(BM_ScatterReadBatch)->Arg(0)->Arg(1);

// A burst of small adjacent remote writes followed by one sync point.
// Arg: 0 = every write is a round trip, 1 = write-combining merges the burst
// into one span flushed (batched) at the barrier.
void BM_SmallWriteBurst(benchmark::State& state) {
  const bool wc = state.range(0) != 0;
  ThreadedRuntime rt(ThreadedOptions{.num_nodes = 4,
                                     .batching = wc,
                                     .write_combine = wc});
  rt.registry().Register("bench.main", [&state](Task& t) {
    constexpr std::uint64_t kWrites = 32;
    constexpr std::uint64_t kStride = 8;
    auto addr = t.AllocOnNode(kWrites * kStride, 1).value();
    std::uint8_t v[kStride] = {0x5A};
    for (auto _ : state) {
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        benchmark::DoNotOptimize(t.Write(addr + i * kStride, v, kStride));
      }
      (void)t.Barrier(21, 1);  // sync point: flushes the combine buffer
    }
  });
  rt.RunMain("bench.main");
}
BENCHMARK(BM_SmallWriteBurst)->Arg(0)->Arg(1);

// --- SIGIO doorbell vs blocking read ----------------------------------------

// Latency from a peer's write to the SIGIO-driven wakeup (the async-I/O
// kernel entry of the paper), measured over a socketpair.
void BM_SigioDoorbell(benchmark::State& state) {
  auto pair = osal::StreamPair().value();
  osal::TcpSocket& a = pair.first;
  osal::TcpSocket& b = pair.second;
  osal::SignalSemaphore doorbell;
  if (!osal::SignalDriver::Install(&doorbell).ok()) {
    state.SkipWithError("SIGIO driver unavailable");
    return;
  }
  if (!b.EnableSigio().ok()) {
    state.SkipWithError("O_ASYNC unavailable");
    osal::SignalDriver::Uninstall();
    return;
  }
  char byte = 0x5A;
  for (auto _ : state) {
    (void)a.SendAll(&byte, 1);
    doorbell.Wait();             // SIGIO handler posts the doorbell
    (void)b.RecvAll(&byte, 1);   // drain so the next edge fires
  }
  osal::SignalDriver::Uninstall();
}
BENCHMARK(BM_SigioDoorbell);

// Same wakeup served by a dedicated blocking-read service thread.
void BM_ServiceThreadWakeup(benchmark::State& state) {
  auto pair = osal::StreamPair().value();
  osal::TcpSocket& a = pair.first;
  osal::TcpSocket& b = pair.second;
  osal::SignalSemaphore wakeup;
  std::thread service([&] {
    char byte;
    while (b.RecvAll(&byte, 1).ok()) wakeup.Post();
  });
  char byte = 0x5A;
  for (auto _ : state) {
    (void)a.SendAll(&byte, 1);
    wakeup.Wait();
  }
  a.ShutdownBoth();
  b.ShutdownBoth();
  service.join();
}
BENCHMARK(BM_ServiceThreadWakeup);

}  // namespace

// Custom main: default to a short --benchmark_min_time so the full bench
// suite stays quick; explicit flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.05";
  bool has_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) {
      has_min_time = true;
    }
  }
  if (!has_min_time) args.push_back(min_time.data());
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
