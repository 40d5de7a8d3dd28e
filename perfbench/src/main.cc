// The DSE benchmark binary: one workload per invocation.
//
//   dse_perfbench --workload gmm_mixed|apps_tcp
//                 --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Prints a report and, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 0 when the
// workload ran and its outputs were correct. perfbench/run.py builds this
// binary and is the command to use.
#include <sched.h>
#include <sys/stat.h>
#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/metered_task.h"
#include "perfbench/src/recorder.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

void SleepUntilNs(std::int64_t ns) {
  timespec ts{};
  ts.tv_sec = ns / 1000000000LL;
  ts.tv_nsec = ns % 1000000000LL;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

namespace {
std::atomic<double> g_ready_cpu_s{0};
}  // namespace

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  DSE_CHECK(sched_setaffinity(0, sizeof(set), &set) == 0);
}

void TimeThreadedSetUps(const dse::ThreadedOptions& options, int count,
                        const std::function<void(dse::TaskRegistry&)>& configure,
                        std::vector<double>* setup_s) {
  for (int i = 0; i < count; ++i) {
    const double start = ProcessCpuSeconds();
    dse::ThreadedRuntime rt(options);
    configure(rt.registry());
    rt.registry().Register("bench.ready",
                           [](dse::Task&) { g_ready_cpu_s.store(ProcessCpuSeconds()); });
    rt.RunMain("bench.ready");
    setup_s->push_back(g_ready_cpu_s.load() - start);
  }
}

void RegisterNoop(dse::TaskRegistry& registry) {
  registry.Register("bench.noop", [](dse::Task&) {});
}

void ProbeSpawnJoin(dse::Task& t, int count) {
  const std::uint16_t name = Names().spawn_join;
  for (int i = 0; i < count; ++i) {
    SpanScope span(name, t.node(), false);
    auto gpid = t.Spawn("bench.noop", {}, i % t.num_nodes());
    if (gpid.ok()) (void)t.Join(*gpid);
  }
}

namespace {

// CPU time of the whole machine from /proc/stat: {steal, total} jiffies.
std::pair<double, double> MachineTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  double v[8] = {};
  if (f != nullptr) {
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

// No faults are injected, so an op that failed, or any retry, timeout or
// epoch bounce in the program's counters, is a wrong result.
void CheckNoFaults(const Measured& m, std::string* wrong) {
  if (!wrong->empty()) return;
  if (m.failed != 0) {
    *wrong = std::to_string(m.failed) + " of " + std::to_string(m.attempted) +
             " ops failed with no fault injected";
    return;
  }
  for (const char* counter : {"rpc.retry", "rpc.timeout", "recovery.epoch_bounces"}) {
    if (Get(m.counters, counter) != 0) {
      *wrong = std::string(counter) + " = " + std::to_string(Get(m.counters, counter)) +
               " with no fault injected";
      return;
    }
  }
}

}  // namespace

int RunAndReport(const Options& o, const std::vector<double>& setup_s,
                 const PhaseFn& phase, const std::function<void()>& more_setups) {
  std::string wrong, error;
  Report report;
  // On a virtual machine, time the hypervisor gives to other guests
  // ("steal") slows every metric; the report states how much there was.
  const auto ticks_before = MachineTicks();
  Measured m;
  if (!o.trace) {
    m = phase(o.seconds, o.seed, &wrong, &error);
    if (more_setups) more_setups();
    CheckNoFaults(m, &wrong);
    if (error.empty()) AddEndToEnd(&report, setup_s, m);
  } else {
    const Measured untraced = phase(o.seconds / 2, o.seed, &wrong, &error);
    Recorder::SetTracing(true);
    if (error.empty()) m = phase(o.seconds / 2, o.seed + 1, &wrong, &error);
    Recorder::SetTracing(false);
    CheckNoFaults(untraced, &wrong);
    CheckNoFaults(m, &wrong);
    if (error.empty()) {
      AddPerLayer(&report, m, untraced);
      constexpr std::size_t kLimit = 200000;
      const std::string path = o.out_dir + "/" + o.workload + ".trace.json";
      const std::size_t written = WriteChromeTrace(path, m.spans, kLimit);
      report.Line("spans: " + std::to_string(m.spans.size()) + " recorded, " +
                  std::to_string(written) + " written to " + path);
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", o.workload.c_str(), error.c_str());
    return 1;
  }
  const auto ticks_after = MachineTicks();
  const double total = ticks_after.second - ticks_before.second;
  char steal[80];
  std::snprintf(steal, sizeof(steal), "steal: %.2f%% of machine CPU time while measuring",
                total > 0 ? 100 * (ticks_after.first - ticks_before.first) / total : 0.0);
  report.Line(steal);
  if (!wrong.empty()) report.Line("INCORRECT: " + wrong);
  report.Print(wrong.empty(), m.attempted, m.failed);
  return wrong.empty() ? 0 : 1;
}

}  // namespace perfbench

namespace {

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload gmm_mixed|apps_tcp "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--node") {
    return AppsTcpNodeMain(std::vector<std::string>(args.begin() + 1, args.end()));
  }
  Options o;
  o.exe = "/proc/self/exe";
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& k = args[i];
    const std::string& v = args[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--out-dir") {
      o.out_dir = v;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (args.size() % 2 != 0 || o.out_dir.empty() || o.seconds <= 0) {
    return PrintUsage(argv[0]);
  }
  mkdir(o.out_dir.c_str(), 0755);
  if (o.workload == "gmm_mixed") return RunGmmMixed(o);
  if (o.workload == "apps_tcp") return RunAppsTcp(o);
  return PrintUsage(argv[0]);
}
