// The simulator probe: one SimRuntime run of Gauss-Seidel (n=900, 10 sweeps)
// on 64 PEs over the routed fabric (topology "auto", the SunOS profile),
// i.e. `dse_run gauss --mode sim --procs 64 --n 900 --sweeps 10 --medium
// fabric`. The traced run of apps_tcp runs it after its measured phases; it
// supplies the sim.*, simnet.* and fabric.* per-layer metrics.
//
// The simulation runs pinned to one CPU (all its threads): unpinned, the
// hand-offs between simulated-process threads land on whichever cores are
// free and wall time spreads about 35% run to run. Pinning hides the cost of
// cross-core wake-ups but not the futex system time of each hand-off.
//
// It is a probe, not a workload: pinned, a simulation is CPU-bound, and its
// CPU time (which is its wall time here) follows the host's speed. On a
// shared VM, single simulations of the same code took 1.65 to 3.13 s, and
// the median over a 30-second run of ~12 simulations moved by a quartile
// spread of 0.09 over ten runs and of 0.22 over eight later ones.
//
// Correctness: the virtual makespan and message count equal the pinned
// values, which are pure functions of the configuration.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>

#include "apps/gauss/gauss.h"
#include "dse/sim_runtime.h"
#include "perfbench/src/metered_task.h"
#include "perfbench/src/recorder.h"
#include "perfbench/src/workloads.h"
#include "platform/profile.h"

namespace perfbench {
namespace {

constexpr int kPes = 64;
constexpr double kPinnedVirtualSeconds = 37.423804025000003;
constexpr std::uint64_t kPinnedMessages = 78222;

std::atomic<std::int64_t> g_main_ns{0};

}  // namespace

void ProbeSim(Measured* m, std::string* wrong) {
  const std::vector<int> cpus = AllowedCpus();
  DSE_CHECK(!cpus.empty());
  PinTo({cpus.front()});
  const Usage before = ReadUsage(RUSAGE_SELF);
  const std::int64_t start = NowNs();

  dse::SimOptions so;
  so.profile = dse::platform::SunOsSparc();
  so.num_processors = kPes;
  so.medium = dse::MediumKind::kRoutedFabric;
  so.fabric.topology = "auto";
  dse::SimRuntime sim(so);
  dse::TaskRegistry plain;
  dse::apps::gauss::Register(plain);
  const dse::TaskFn gauss_main = plain.Get(dse::apps::gauss::kMainTask);
  RegisterMetered(sim.registry(), dse::apps::gauss::Register);
  sim.registry().Register("sim.main", [&](dse::Task& t) {
    g_main_ns.store(NowNs());
    MeteredTask metered(t);
    gauss_main(metered);
  });
  dse::apps::gauss::Config cfg;
  cfg.n = 900;
  cfg.sweeps = 10;
  cfg.workers = kPes;
  const dse::SimReport r = sim.Run("sim.main", dse::apps::gauss::MakeArg(cfg));
  const double wall_s = static_cast<double>(NowNs() - g_main_ns.load()) / 1e9;
  const double setup_s = static_cast<double>(g_main_ns.load() - start) / 1e9;
  const Usage usage = ReadUsage(RUSAGE_SELF) - before;
  PinTo(cpus);
  // The simulated app's spans are not the workload's client calls.
  Recorder::Clear();

  if ((r.virtual_seconds != kPinnedVirtualSeconds || r.messages != kPinnedMessages) &&
      wrong->empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "simulator probe: virtual %.17g s / %llu msgs, pinned %.17g s / %llu msgs",
                  r.virtual_seconds, static_cast<unsigned long long>(r.messages),
                  kPinnedVirtualSeconds, static_cast<unsigned long long>(kPinnedMessages));
    *wrong = buf;
  }
  const auto& medium = r.medium_counters;
  m->extra["sim.wall_us_per_msg"] = {
      wall_s * 1e6 / static_cast<double>(r.messages),
      "wall " + std::to_string(wall_s) + " s over " + std::to_string(r.messages) +
          " msgs"};
  m->extra["sim.virtual_s"] = {r.virtual_seconds, "virtual seconds of the probe"};
  m->extra["sim.msgs"] = {static_cast<double>(r.messages), "messages of the probe"};
  m->extra["simnet.wire_frames"] = {static_cast<double>(r.wire_frames),
                                    "frames of the probe"};
  m->extra["fabric.hops"] = {static_cast<double>(Get(medium, "fabric.hops")),
                             "hops of the probe"};
  m->extra["fabric.credit_stalls"] = {
      static_cast<double>(Get(medium, "fabric.credit_stalls")),
      "credit stalls of the probe"};
  char line[200];
  std::snprintf(line, sizeof(line),
                "simulator probe: 64-PE Gauss n=900 x10 on the routed fabric, pinned to "
                "CPU %d: set-up %.6f s, wall %.3f s, CPU %.3f s user + %.3f s sys",
                cpus.front(), setup_s, wall_s, usage.user_s, usage.sys_s);
  m->lines.push_back(line);
}

}  // namespace perfbench
