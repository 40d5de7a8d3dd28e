// The two benchmark workloads, the probes their traced runs add, and what
// they share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dse/threaded_runtime.h"
#include "perfbench/src/report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string exe;      // this binary (apps_tcp re-executes it per node)
  std::string out_dir;  // run files and the traced run's span file
};

// Each returns the process exit code after printing its report; a failed
// correctness check still prints a report, with "correct": false.
int RunGmmMixed(const Options& o);
int RunAppsTcp(const Options& o);

// The simulator probe (traced apps_tcp runs): one 64-PE Gauss simulation on
// the routed fabric, pinned to one CPU. Adds the sim.*, simnet.* and
// fabric.* values to m->extra and a report line; sets *wrong if the virtual
// time or message count differ from their pinned values.
void ProbeSim(Measured* m, std::string* wrong);

// The scheduler probe (traced gmm_mixed runs): `seconds` of an open loop of
// 2 ms jobs through SubmitJob on a fresh scheduler-enabled runtime. Adds the
// sched.*, serving.gen_late.p99_us and slo_miss_frac values to m->extra, a
// report line, and (tracing) its spans; sets *wrong if the scheduler ledger
// does not balance.
void ProbeServing(std::uint64_t seed, double seconds, Measured* m,
                  std::string* wrong);

// Entry point of one apps_tcp node process (argv after "--node").
int AppsTcpNodeMain(const std::vector<std::string>& args);

// Deterministic 64-bit generator (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Builds and tears down a ThreadedRuntime `count` times, appending to
// `setup_s` the CPU seconds of the whole process from construction until
// the first main task runs on node 0 (the cluster is ready). `configure`
// registers the workload's tasks on each new runtime. One set-up takes
// 0.1-0.3 ms, mostly creating node threads, and its cost drifts with the
// host for stretches of 0.1 s to tens of seconds. So a workload times
// thousands of set-ups, half before and half after its measured phase, and
// reports their median.
void TimeThreadedSetUps(const dse::ThreadedOptions& options, int count,
                        const std::function<void(dse::TaskRegistry&)>& configure,
                        std::vector<double>* setup_s);

// Spawns and joins a no-op task `count` times round-robin over the nodes,
// each pair inside a "pm.spawn_join" span (traced runs only).
void RegisterNoop(dse::TaskRegistry& registry);
void ProbeSpawnJoin(dse::Task& t, int count);

// The CPUs this process may run on, and pinning the calling thread (and
// every thread it creates afterwards) to a set of them.
std::vector<int> AllowedCpus();
void PinTo(const std::vector<int>& cpus);

// Seconds of warm-up before every gmm_mixed segment and the scheduler
// probe (each starts new client or tenant tasks).
inline constexpr double kWarmupSeconds = 0.2;

// Sleeps the calling thread until CLOCK_MONOTONIC reaches `ns`.
void SleepUntilNs(std::int64_t ns);

// One measured phase of `seconds` with inputs from `seed`. It sets *wrong
// when a correctness check fails and *error when the run cannot complete.
using PhaseFn = std::function<Measured(double seconds, std::uint64_t seed,
                                       std::string* wrong, std::string* error)>;

// Measures and prints the report. Untraced: one phase of o.seconds, the
// end-to-end metrics. Traced: an untraced then a traced phase of half the
// seconds each, the per-layer metrics and the tracing overhead between the
// two; the spans go to <out-dir>/<workload>.trace.json. An untraced run
// calls `more_setups`, when given, after its phase to time more set-ups;
// `setup_s` is read after that. Returns the exit code: 1 on *error (no
// result printed) or *wrong ("correct": false), else 0.
int RunAndReport(const Options& o, const std::vector<double>& setup_s,
                 const PhaseFn& phase,
                 const std::function<void()>& more_setups = nullptr);

}  // namespace perfbench
