// gmm_mixed: a closed loop of 64 B global-memory operations on the threaded
// runtime with replication on.
//
// Two client tasks on nodes 1 and 2 each issue a seeded stream against a
// working set striped in 64 B blocks over the 4 nodes (so about a quarter
// of accesses are homed on the client's own node): 70% Read, 20% Write,
// 5% AtomicFetchAdd, 5% Lock+Unlock. Each client waits for one operation to
// finish before it issues the next.
//
// Correctness: every block read during the run and at the end holds either
// zeros or a self-describing value some client wrote to that block; each
// block ends holding the last value one of the two clients wrote there; each
// fetch-add counter ends equal to the sum of the deltas added to it.
#include <sys/resource.h>

#include <algorithm>
#include <array>

#include "common/bytes.h"
#include "dse/gmm/addr.h"
#include "perfbench/src/metered_task.h"
#include "perfbench/src/recorder.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

constexpr int kNodes = 4;
constexpr int kClients = 2;
constexpr dse::NodeId kClientNodes[kClients] = {1, 2};
constexpr std::uint64_t kBlocks = 4096;  // 256 KiB working set
constexpr std::uint64_t kCounters = 64;  // one per 64 B block
constexpr std::uint64_t kLocks = 16;
constexpr std::size_t kChunkOps = 1000;  // one work unit
constexpr int kSetups = 5000;
constexpr int kProbePairs = 200;
// The measured phase is cut into segments, each on a fresh runtime with
// fresh node threads. Where the host places a runtime's threads holds for
// its life and can halve its op rate (one run in eight did, for its whole
// four seconds), so one runtime per run made the run's figure depend on one
// placement; a segment's placement moves the median over all segments'
// work units little.
constexpr double kSegmentSeconds = 2;
// Length of the scheduler probe after the traced phase.
constexpr double kServingProbeSeconds = 3;

struct ClientResult {
  // Per chunk of kChunkOps ops: wall time and latency quantiles. Only the
  // summaries are kept, so memory does not grow with the run.
  std::vector<double> chunk_s;
  std::vector<UnitLatency> chunk_lat;
  std::vector<Slice> slices;  // completions per one-second slice
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bad_reads = 0;
  std::array<std::int64_t, kCounters> added{};
  std::vector<std::uint64_t> last_tag = std::vector<std::uint64_t>(kBlocks, 0);
};

// Shared with the client tasks: the threaded runtime runs them in this
// process.
struct PhaseState {
  std::uint64_t seed = 0;
  std::int64_t measure_from_ns = 0;
  std::int64_t measure_to_ns = 0;
  dse::gmm::GlobalAddr data = 0;
  dse::gmm::GlobalAddr counters = 0;
  std::array<ClientResult, kClients> clients;
  dse::MetricsSnapshot before, after;
  Usage usage_before, usage_after;
  bool final_ok = false;
  std::string final_error;
};
PhaseState* g_phase = nullptr;

std::uint64_t Mix(std::uint64_t tag, std::uint64_t block, std::uint64_t word) {
  Rng r(tag * 0x100000001B3ULL ^ (block << 8) ^ word);
  return r.Next();
}

void Fill(std::uint64_t tag, std::uint64_t block, std::uint64_t* words) {
  words[0] = tag;
  for (std::uint64_t i = 1; i < 8; ++i) words[i] = Mix(tag, block, i);
}

// Zeros (never written) or a consistent value written by a client.
bool Plausible(const std::uint64_t* words, std::uint64_t block) {
  if (words[0] == 0) {
    for (int i = 1; i < 8; ++i) {
      if (words[i] != 0) return false;
    }
    return true;
  }
  const std::uint64_t client = words[0] >> 48;
  if (client < 1 || client > kClients) return false;
  for (std::uint64_t i = 1; i < 8; ++i) {
    if (words[i] != Mix(words[0], block, i)) return false;
  }
  return true;
}

void ClientBody(dse::Task& raw) {
  dse::ByteReader r(raw.arg().data(), raw.arg().size());
  std::int32_t index = 0;
  DSE_CHECK_OK(r.ReadI32(&index));
  PhaseState& ph = *g_phase;
  ClientResult& out = ph.clients[static_cast<size_t>(index)];
  MeteredTask metered(raw);
  dse::Task& t = Recorder::tracing() ? static_cast<dse::Task&>(metered) : raw;
  const std::uint16_t lock_pair = Names().lock_pair;
  Rng rng(ph.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(index));
  const std::uint64_t tag_base = static_cast<std::uint64_t>(index + 1) << 48;
  std::uint64_t seq = 0;
  std::uint64_t words[8];
  std::vector<double> chunk_us;
  chunk_us.reserve(kChunkOps);
  std::int64_t chunk_start = 0;
  out.slices = MakeSlices(ph.measure_from_ns, ph.measure_to_ns);

  for (;;) {
    const std::int64_t start = NowNs();
    if (start >= ph.measure_to_ns) break;
    const bool measured = start >= ph.measure_from_ns;
    if (measured && chunk_us.empty()) chunk_start = start;
    const std::uint64_t dice = rng.Below(100);
    bool ok = true;
    if (dice < 90) {
      const std::uint64_t block = rng.Below(kBlocks);
      const dse::gmm::GlobalAddr addr = ph.data + block * 64;
      if (dice < 70) {
        ok = t.Read(addr, words, 64).ok();
        if (ok && !Plausible(words, block)) ++out.bad_reads;
      } else {
        const std::uint64_t tag = tag_base | ++seq;
        Fill(tag, block, words);
        ok = t.Write(addr, words, 64).ok();
        if (ok) out.last_tag[block] = tag;
      }
    } else if (dice < 95) {
      const std::uint64_t counter = rng.Below(kCounters);
      const std::int64_t delta = 1 + static_cast<std::int64_t>(rng.Below(100));
      ok = t.AtomicFetchAdd(ph.counters + counter * 64, delta).ok();
      if (ok) out.added[counter] += delta;
    } else {
      const std::uint64_t lock = 1 + rng.Below(kLocks);
      SpanScope span(lock_pair, raw.node(), false);
      ok = t.Lock(lock).ok();
      ok = t.Unlock(lock).ok() && ok;
    }
    const std::int64_t end = NowNs();
    if (!measured) continue;
    CountInSlice(&out.slices, ph.measure_from_ns, end);
    ++out.attempted;
    if (!ok) ++out.failed;
    chunk_us.push_back(static_cast<double>(end - start) / 1e3);
    if (chunk_us.size() == kChunkOps) {
      out.chunk_s.push_back(static_cast<double>(end - chunk_start) / 1e9);
      out.chunk_lat.push_back(Summarize(chunk_us));
      chunk_us.clear();
    }
  }
}

void MainBody(dse::Task& t) {
  PhaseState& ph = *g_phase;
  ph.data = t.AllocStriped(kBlocks * 64, 6).value();
  ph.counters = t.AllocStriped(kCounters * 64, 6).value();
  std::vector<dse::Gpid> clients;
  for (int i = 0; i < kClients; ++i) {
    dse::ByteWriter w;
    w.WriteI32(i);
    clients.push_back(t.Spawn("gmm.client", w.TakeBuffer(), kClientNodes[i]).value());
  }
  SleepUntilNs(ph.measure_from_ns);
  ph.before = SumNodes(t.ClusterStats().value());
  ph.usage_before = ReadUsage(RUSAGE_SELF);
  for (dse::Gpid g : clients) DSE_CHECK_OK(t.Join(g).status());
  ph.usage_after = ReadUsage(RUSAGE_SELF);
  ph.after = SumNodes(t.ClusterStats().value());

  // Final state check.
  std::vector<std::uint64_t> image(kBlocks * 8);
  DSE_CHECK_OK(t.Read(ph.data, image.data(), kBlocks * 64));
  ph.final_ok = true;
  for (std::uint64_t b = 0; b < kBlocks && ph.final_ok; ++b) {
    const std::uint64_t* words = &image[b * 8];
    const std::uint64_t a = ph.clients[0].last_tag[b];
    const std::uint64_t c = ph.clients[1].last_tag[b];
    const bool expected = (a == 0 && c == 0) ? words[0] == 0
                                             : (words[0] == a || words[0] == c);
    if (!expected || !Plausible(words, b)) {
      ph.final_ok = false;
      ph.final_error = "block " + std::to_string(b) +
                       " does not hold the last value a client wrote";
    }
  }
  for (std::uint64_t c = 0; c < kCounters && ph.final_ok; ++c) {
    const auto v = t.ReadValue<std::int64_t>(ph.counters + c * 64);
    const std::int64_t want = ph.clients[0].added[c] + ph.clients[1].added[c];
    if (v != want) {
      ph.final_ok = false;
      ph.final_error = "counter " + std::to_string(c) + " = " +
                       std::to_string(v) + ", fetch-adds sum to " +
                       std::to_string(want);
    }
  }
  if (Recorder::tracing()) {
    MeteredTask metered(t);
    ProbeSpawnJoin(metered, kProbePairs);
  }
}

void Configure(dse::TaskRegistry& registry) {
  registry.Register("gmm.main", MainBody);
  registry.Register("gmm.client", ClientBody);
  RegisterNoop(registry);
}

// One segment: a fresh runtime, kWarmupSeconds of warm-up, then `seconds`
// measured.
Measured RunSegment(const dse::ThreadedOptions& opts, std::uint64_t seed,
                    double seconds, std::string* wrong) {
  dse::ThreadedRuntime rt(opts);
  Configure(rt.registry());
  PhaseState ph;
  ph.seed = seed;
  ph.measure_from_ns = NowNs() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  ph.measure_to_ns = ph.measure_from_ns + static_cast<std::int64_t>(seconds * 1e9);
  g_phase = &ph;
  Recorder::Clear();
  rt.RunMain("gmm.main");
  g_phase = nullptr;

  Measured m;
  m.unit = "1000 consecutive ops of one client";
  m.op = "one GMM operation (a Lock+Unlock pair counts as one)";
  m.seconds = static_cast<double>(ph.measure_to_ns - ph.measure_from_ns) / 1e9;
  std::uint64_t bad_reads = 0;
  std::vector<Slice> slices;
  for (const ClientResult& c : ph.clients) {
    MergeSlices(&slices, c.slices);
    m.unit_s.insert(m.unit_s.end(), c.chunk_s.begin(), c.chunk_s.end());
    m.unit_lat.insert(m.unit_lat.end(), c.chunk_lat.begin(), c.chunk_lat.end());
    m.attempted += c.attempted;
    m.failed += c.failed;
    bad_reads += c.bad_reads;
  }
  m.slice_rates = SliceRates(slices);
  m.units_done = static_cast<double>(m.attempted) / kChunkOps;
  m.usage = ph.usage_after - ph.usage_before;
  if (m.units_done > 0) m.unit_cpu_s.push_back(CpuSeconds(m.usage) / m.units_done);
  m.peak_rss_mb = PeakRssMb();
  m.counters = Delta(ph.after, ph.before);
  if (bad_reads != 0) {
    *wrong = std::to_string(bad_reads) + " reads returned a value no client wrote";
  } else if (!ph.final_ok) {
    *wrong = ph.final_error;
  }
  if (Recorder::tracing()) {
    for (const Span& s : Recorder::Collect()) {
      if (s.start_ns >= ph.measure_from_ns) m.spans.push_back(s);
    }
  }
  return m;
}

}  // namespace

int RunGmmMixed(const Options& o) {
  dse::ThreadedOptions opts;
  opts.num_nodes = kNodes;
  opts.replication = 1;
  std::vector<double> setup_s;
  const auto time_setups = [&] {
    TimeThreadedSetUps(opts, kSetups / 2, Configure, &setup_s);
  };
  time_setups();

  return RunAndReport(
      o, setup_s,
      [&](double seconds, std::uint64_t seed, std::string* wrong, std::string*) {
        // Segments of kSegmentSeconds, each on a fresh runtime with its own
        // seed; a last shorter one fills the phase.
        Measured all;
        int segments = 0;
        for (double left = seconds; left > 1e-9 && wrong->empty();
             left -= kSegmentSeconds) {
          const std::uint64_t segment_seed =
              seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(segments++);
          Append(&all, RunSegment(opts, segment_seed,
                                  std::min(left, kSegmentSeconds), wrong));
        }
        all.lines.push_back("measured over " + std::to_string(segments) +
                            " segments, each on a fresh runtime");
        if (Recorder::tracing() && wrong->empty()) {
          ProbeServing(seed, kServingProbeSeconds, &all, wrong);
        }
        return all;
      },
      time_setups);
}

}  // namespace perfbench
