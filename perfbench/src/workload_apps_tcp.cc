// apps_tcp: the paper's deployment shape — four ProcessRuntime node
// processes meshed over loopback TCP — solving Gauss-Seidel (a striped bulk
// read and barriers every sweep) and then DCT-II with 4x4 blocks (an atomic
// work queue plus one 64 B block read and write per block). Replication is
// off.
//
// The launcher (this process) re-executes its own binary once per node;
// node 0 runs "apps.main", which times whole solves. The application tasks
// are the repository's own gauss/dct tasks, wrapped in MeteredTask, so every
// Task call they make is timed from outside. Node processes hand their
// spans and peak RSS to the launcher through files in the run directory.
//
// Correctness: each solve's result bytes (gauss: residual, checksum of x,
// sweeps; dct: checksum of the coefficients, PSNR) must equal those of the
// same configuration run on SimRuntime, and every solve must return the
// same bytes.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "apps/dct/dct.h"
#include "apps/gauss/gauss.h"
#include "common/bytes.h"
#include "dse/process_runtime.h"
#include "dse/sim_runtime.h"
#include "osal/socket.h"
#include "platform/profile.h"
#include "perfbench/src/metered_task.h"
#include "perfbench/src/recorder.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

constexpr int kNodes = 4;
constexpr int kSetupLaunches = 21;
// Measured solves per cluster launch. A node process's memory grows with
// every task it has run (finished task threads are joined only at
// shutdown), so peak_rss_mb is taken over a fixed amount of work: the
// measured phase is a series of launches of kSolvesPerLaunch solves each.
constexpr int kSolvesPerLaunch = 3;
constexpr double kLaunchDeadlineSeconds = 60;
constexpr int kProbePairs = 100;

dse::apps::gauss::Config GaussConfig() {
  dse::apps::gauss::Config c;
  c.n = 200;
  c.sweeps = 400;
  c.workers = kNodes;
  return c;
}

dse::apps::dct::Config DctConfig() {
  dse::apps::dct::Config c;
  c.width = 256;
  c.height = 256;
  c.block = 4;
  c.workers = kNodes;
  return c;
}

struct NodeArgs {
  int self = 0;
  std::string rundir;
  bool run = false;  // false: set-up only (main returns once it is running)
  bool trace = false;
  std::vector<std::uint16_t> ports;
};

bool WriteFile(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(b.data(), 1, b.size(), f) == b.size();
  return std::fclose(f) == 0 && ok;
}

bool ReadFile(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in), {});
  return true;
}

void WriteUsage(dse::ByteWriter& w, const Usage& u) {
  w.WriteF64(u.user_s);
  w.WriteF64(u.sys_s);
  w.WriteF64(u.vol_ctx);
}

Usage ReadUsageFrom(dse::ByteReader& r) {
  Usage u;
  DSE_CHECK_OK(r.ReadF64(&u.user_s));
  DSE_CHECK_OK(r.ReadF64(&u.sys_s));
  DSE_CHECK_OK(r.ReadF64(&u.vol_ctx));
  return u;
}

void WriteCounters(dse::ByteWriter& w, const dse::MetricsSnapshot& m) {
  w.WriteU64(m.size());
  for (const auto& [k, v] : m) {
    w.WriteString(k);
    w.WriteU64(v);
  }
}

dse::MetricsSnapshot ReadCounters(dse::ByteReader& r) {
  dse::MetricsSnapshot m;
  std::uint64_t n = 0;
  DSE_CHECK_OK(r.ReadU64(&n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k;
    std::uint64_t v = 0;
    DSE_CHECK_OK(r.ReadString(&k));
    DSE_CHECK_OK(r.ReadU64(&v));
    m[k] = v;
  }
  return m;
}

// CPU of every node process, read by a probe task spawned on each node.
Usage ClusterUsage(dse::Task& t) {
  Usage total;
  for (int node = 0; node < t.num_nodes(); ++node) {
    const dse::Gpid g = t.Spawn("bench.rusage", {}, node).value();
    const std::vector<std::uint8_t> bytes = t.Join(g).value();
    dse::ByteReader r(bytes.data(), bytes.size());
    total = total + ReadUsageFrom(r);
  }
  return total;
}

void AppsMain(dse::Task& t, const NodeArgs& na) {
  dse::ByteWriter out;
  if (!na.run) {
    DSE_CHECK(WriteFile(na.rundir + "/result", out.TakeBuffer()));
    return;
  }
  MeteredTask m(t);
  const auto gauss_arg = dse::apps::gauss::MakeArg(GaussConfig());
  const auto dct_arg = dse::apps::dct::MakeArg(DctConfig());
  auto solve = [&](std::vector<std::uint8_t>* g, std::vector<std::uint8_t>* d) {
    *g = m.Join(m.Spawn(dse::apps::gauss::kMainTask, gauss_arg, 0).value()).value();
    *d = m.Join(m.Spawn(dse::apps::dct::kMainTask, dct_arg, 0).value()).value();
  };
  std::vector<std::uint8_t> first_gauss, first_dct, g, d;
  solve(&first_gauss, &first_dct);  // warm-up

  const Usage usage_before = ClusterUsage(t);
  const dse::MetricsSnapshot before = SumNodes(t.ClusterStats().value());
  const std::int64_t from = NowNs();
  const std::uint16_t unit_name = InternName("apps.solve");
  std::vector<double> unit_s;
  std::vector<std::int64_t> unit_start;
  bool identical = true;
  while (unit_s.size() < kSolvesPerLaunch) {
    const std::int64_t start = NowNs();
    unit_start.push_back(start);
    {
      SpanScope span(unit_name, t.node(), false);
      solve(&g, &d);
    }
    unit_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    identical = identical && g == first_gauss && d == first_dct;
  }
  const std::int64_t to = NowNs();
  const dse::MetricsSnapshot after = SumNodes(t.ClusterStats().value());
  const Usage usage_after = ClusterUsage(t);
  if (Recorder::tracing()) ProbeSpawnJoin(m, kProbePairs);

  out.WriteI64(from);
  out.WriteI64(to);
  out.WriteU64(unit_s.size());
  for (std::size_t i = 0; i < unit_s.size(); ++i) {
    out.WriteI64(unit_start[i]);
    out.WriteF64(unit_s[i]);
  }
  out.WriteU8(identical ? 1 : 0);
  out.WriteBytes(std::string_view(reinterpret_cast<const char*>(first_gauss.data()),
                                  first_gauss.size()));
  out.WriteBytes(std::string_view(reinterpret_cast<const char*>(first_dct.data()),
                                  first_dct.size()));
  WriteCounters(out, Delta(after, before));
  WriteUsage(out, usage_after - usage_before);
  DSE_CHECK(WriteFile(na.rundir + "/result", out.TakeBuffer()));
}

void RegisterNodeTasks(dse::TaskRegistry& registry, const NodeArgs& na) {
  RegisterMetered(registry, [](dse::TaskRegistry& r) {
    dse::apps::gauss::Register(r);
    dse::apps::dct::Register(r);
  });
  RegisterNoop(registry);
  registry.Register("bench.rusage", [](dse::Task& t) {
    dse::ByteWriter w;
    WriteUsage(w, ReadUsage(RUSAGE_SELF));
    t.SetResult(w.TakeBuffer());
  });
  registry.Register("apps.main", [na](dse::Task& t) { AppsMain(t, na); });
}

// Starts the four node processes, waits for all of them (killing the rest
// when one fails or the deadline passes) and reports whether all exited 0.
bool Launch(const Options& o, const NodeArgs& proto, std::string* error) {
  NodeArgs na = proto;
  {
    std::vector<dse::osal::TcpListener> holders;
    for (int i = 0; i < kNodes; ++i) {
      auto l = dse::osal::TcpListener::Listen(0);
      if (!l.ok()) {
        *error = "cannot reserve a loopback port";
        return false;
      }
      na.ports.push_back(l->port());
      holders.push_back(std::move(*l));
    }
  }
  std::remove((na.rundir + "/result").c_str());
  for (int node = 0; node < kNodes; ++node) {
    std::remove((na.rundir + "/node" + std::to_string(node) + ".setup").c_str());
  }
  std::vector<pid_t> pids;
  for (int node = 0; node < kNodes; ++node) {
    std::vector<std::string> argv = {
        o.exe,        "--node",
        std::to_string(node), na.rundir,
        na.run ? "run" : "ready",
        na.trace ? "1" : "0"};
    for (std::uint16_t p : na.ports) argv.push_back(std::to_string(p));
    std::vector<char*> cargv;
    for (auto& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
      execv(cargv[0], cargv.data());
      _exit(127);
    }
    if (pid < 0) {
      *error = "fork failed";
      break;
    }
    pids.push_back(pid);
  }
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(kLaunchDeadlineSeconds * 1e9);
  bool ok = static_cast<int>(pids.size()) == kNodes;
  std::size_t live = pids.size();
  while (live > 0) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      --live;
      for (auto& p : pids) {
        if (p == pid) p = -1;
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ok = false;
        if (error->empty()) *error = "a node process failed";
      }
      continue;
    }
    if (!ok || NowNs() > deadline) {
      if (ok) *error = "node processes did not finish in time";
      ok = false;
      for (pid_t p : pids) {
        if (p > 0) kill(p, SIGKILL);
      }
    }
    usleep(2000);
  }
  return ok;
}

struct LaunchResult {
  double setup_cpu_s = 0;  // CPU of the four node processes until connected
  Measured m;
  std::vector<std::uint8_t> gauss, dct;
  bool identical = false;
};

bool ReadLaunch(const NodeArgs& na, LaunchResult* out) {
  std::vector<std::uint8_t> bytes;
  if (!ReadFile(na.rundir + "/result", &bytes)) return false;
  dse::ByteReader r(bytes.data(), bytes.size());
  for (int node = 0; node < kNodes; ++node) {
    std::vector<std::uint8_t> cpu;
    if (!ReadFile(na.rundir + "/node" + std::to_string(node) + ".setup", &cpu)) {
      return false;
    }
    dse::ByteReader cr(cpu.data(), cpu.size());
    double s = 0;
    DSE_CHECK_OK(cr.ReadF64(&s));
    out->setup_cpu_s += s;
  }
  if (!na.run) return true;
  Measured& m = out->m;
  std::int64_t from = 0, to = 0;
  std::uint64_t units = 0;
  DSE_CHECK_OK(r.ReadI64(&from));
  DSE_CHECK_OK(r.ReadI64(&to));
  DSE_CHECK_OK(r.ReadU64(&units));
  m.unit_s.resize(units);
  std::vector<std::int64_t> unit_start(units);
  for (std::uint64_t i = 0; i < units; ++i) {
    DSE_CHECK_OK(r.ReadI64(&unit_start[i]));
    DSE_CHECK_OK(r.ReadF64(&m.unit_s[i]));
  }
  std::uint8_t identical = 0;
  DSE_CHECK_OK(r.ReadU8(&identical));
  out->identical = identical != 0;
  DSE_CHECK_OK(r.ReadBytes(&out->gauss));
  DSE_CHECK_OK(r.ReadBytes(&out->dct));
  m.counters = ReadCounters(r);
  m.usage = ReadUsageFrom(r);
  m.seconds = static_cast<double>(to - from) / 1e9;
  m.units_done = static_cast<double>(units);
  if (units > 0) m.unit_cpu_s.push_back(CpuSeconds(m.usage) / m.units_done);
  m.unit = "one Gauss-Seidel solve plus one DCT solve";
  m.op = "one Task call (read/write/atomic/lock/barrier) by the app tasks";

  std::vector<Span> spans;
  for (int node = 0; node < kNodes; ++node) {
    const std::string base = na.rundir + "/node" + std::to_string(node);
    if (!LoadSpans(base + ".spans", &spans)) return false;
    std::vector<std::uint8_t> rss;
    if (!ReadFile(base + ".rss", &rss)) return false;
    dse::ByteReader rr(rss.data(), rss.size());
    double mb = 0;
    DSE_CHECK_OK(rr.ReadF64(&mb));
    m.peak_rss_mb += mb;
  }
  m.op_us = ClientOpLatencies(spans, from, to);
  // The op rate changes between the Gauss and the DCT part of a solve, so
  // a solve, not a second, is this workload's ops_per_s slice.
  m.rate_basis = "solves";

  for (std::uint64_t i = 0; i < units; ++i) {
    const auto end = unit_start[i] + static_cast<std::int64_t>(m.unit_s[i] * 1e9);
    const std::vector<double> ops = ClientOpLatencies(spans, unit_start[i], end);
    m.unit_lat.push_back(Summarize(ops));
    m.slice_rates.push_back(static_cast<double>(ops.size()) / m.unit_s[i]);
  }
  m.attempted = m.op_us.size();
  if (na.trace) {
    for (const Span& s : spans) {
      if (s.start_ns >= from) m.spans.push_back(s);
    }
  }
  return true;
}

}  // namespace

int AppsTcpNodeMain(const std::vector<std::string>& args) {
  if (args.size() != 4 + kNodes) return 2;
  NodeArgs na;
  na.self = std::atoi(args[0].c_str());
  na.rundir = args[1];
  na.run = args[2] == "run";
  na.trace = args[3] == "1";
  for (int i = 0; i < kNodes; ++i) {
    na.ports.push_back(static_cast<std::uint16_t>(std::atoi(args[4 + i].c_str())));
  }
  Recorder::SetTracing(na.trace);
  Recorder::SetIdBase(static_cast<std::uint64_t>(na.self + 1) << 40);
  const std::string base = na.rundir + "/node" + std::to_string(na.self);
  if (na.run && !Recorder::SpillTo(base + ".spans")) return 1;
  std::vector<dse::net::TcpNodeAddr> nodes;
  for (std::uint16_t p : na.ports) nodes.push_back({"127.0.0.1", p});
  auto rt = dse::ProcessRuntime::Create(na.self, std::move(nodes));
  if (!rt.ok()) {
    std::fprintf(stderr, "node %d: %s\n", na.self, rt.status().ToString().c_str());
    return 1;
  }
  {
    // This process's share of the cluster's set-up: its CPU from exec until
    // its runtime is connected to every peer.
    dse::ByteWriter w;
    w.WriteF64(ProcessCpuSeconds());
    if (!WriteFile(base + ".setup", w.TakeBuffer())) return 1;
  }
  RegisterNodeTasks((*rt)->registry(), na);
  if (na.self == 0) {
    (*rt)->RunMainAndShutdown("apps.main", {});
  } else {
    (*rt)->ServeUntilShutdown();
  }
  rt->reset();
  if (!na.run) return 0;
  dse::ByteWriter w;
  w.WriteF64(PeakRssMb());
  if (!Recorder::CloseSpill() || !DumpSpans(base + ".spans", Recorder::Collect()) ||
      !WriteFile(base + ".rss", w.TakeBuffer())) {
    return 1;
  }
  return 0;
}

int RunAppsTcp(const Options& o) {
  // Reference results: the same configurations on the simulator.
  dse::SimOptions so;
  so.profile = dse::platform::SunOsSparc();
  so.num_processors = kNodes;
  dse::SimRuntime sim(so);
  dse::apps::gauss::Register(sim.registry());
  dse::apps::dct::Register(sim.registry());
  const auto ref_gauss =
      sim.Run(dse::apps::gauss::kMainTask, dse::apps::gauss::MakeArg(GaussConfig()))
          .main_result;
  const auto ref_dct =
      sim.Run(dse::apps::dct::kMainTask, dse::apps::dct::MakeArg(DctConfig()))
          .main_result;

  NodeArgs na;
  na.rundir = o.out_dir + "/apps_tcp";
  mkdir(na.rundir.c_str(), 0755);
  std::string error;
  std::vector<double> setup_s;
  // Launch 0 warms the page cache for the binary and is not counted.
  for (int i = 0; i <= kSetupLaunches && error.empty(); ++i) {
    LaunchResult lr;
    if (!Launch(o, na, &error) || !ReadLaunch(na, &lr)) {
      if (error.empty()) error = "set-up launch left no result";
      break;
    }
    if (i > 0) setup_s.push_back(lr.setup_cpu_s);
  }

  if (!error.empty()) {
    std::fprintf(stderr, "apps_tcp: %s\n", error.c_str());
    return 1;
  }
  return RunAndReport(o, setup_s, [&](double seconds, std::uint64_t,
                                      std::string* wrong, std::string* fail) {
    NodeArgs run = na;
    run.run = true;
    run.trace = Recorder::tracing();
    Measured all;
    std::vector<double> rss;
    const std::int64_t until = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      LaunchResult lr;
      if (!Launch(o, run, fail) || !ReadLaunch(run, &lr)) {
        if (fail->empty()) *fail = "measured launch left no result";
        break;
      }
      // Every launch sets a cluster up the same way, so the measured ones
      // add to setup_s: its median then covers the whole run, not the
      // half second of set-up launches before it.
      setup_s.push_back(lr.setup_cpu_s);
      if (lr.gauss != ref_gauss) *wrong = "gauss result differs from SimRuntime's";
      if (lr.dct != ref_dct) *wrong = "dct result differs from SimRuntime's";
      if (!lr.identical) *wrong = "solves of one run returned different results";
      Append(&all, lr.m);
      rss.push_back(lr.m.peak_rss_mb);
    } while (NowNs() < until);
    all.peak_rss_mb = Median(rss);
    if (Recorder::tracing() && wrong->empty()) ProbeSim(&all, wrong);
    all.lines.push_back("measured over " + std::to_string(rss.size()) +
                        " cluster launches of " + std::to_string(kSolvesPerLaunch) +
                        " solves; peak_rss_mb is the median over launches");
    return all;
  });
}

}  // namespace perfbench
