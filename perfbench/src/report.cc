#include "perfbench/src/report.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "perfbench/src/metered_task.h"

namespace perfbench {
namespace {

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string Count(std::uint64_t v) { return std::to_string(v); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer values a workload supplies through Measured::extra. A workload
// that does not exercise the layer reports 0 with the stated reason.
struct ExtraMetric {
  const char* name;
  const char* unit;
  const char* absent;
};
constexpr ExtraMetric kExtras[] = {
    {"sched.start_delay.p50_us", "us", "no scheduler on this workload"},
    {"sched.queue_depth.max", "count", "no scheduler on this workload"},
    {"sched.shed", "count", "no scheduler on this workload"},
    {"sched.busy_frac", "frac", "no scheduler on this workload"},
    {"serving.gen_late.p99_us", "us", "closed loop: no open-loop generator"},
    {"slo_miss_frac", "frac", "no latency limit on this workload"},
    {"sim.wall_us_per_msg", "us/msg", "not a simulator run"},
    {"sim.virtual_s", "virtual_s", "not a simulator run"},
    {"sim.msgs", "count", "not a simulator run"},
    {"simnet.wire_frames", "count", "not a simulator run"},
    {"fabric.hops", "count", "not a routed-fabric run"},
    {"fabric.credit_stalls", "count", "not a routed-fabric run"},
};

void AddLatency(Report* r, const std::string& metric,
                const std::vector<double>& v, bool with_tail) {
  if (v.empty()) {
    r->Add(metric + ".p50_us", 0, "us", "no samples: workload makes no such call");
    if (with_tail) {
      r->Add(metric + ".p99_us", 0, "us", "no samples: workload makes no such call");
    }
    return;
  }
  r->Add(metric + ".p50_us", Median(v), "us", "n=" + Count(v.size()));
  if (with_tail) {
    const Tail t = TailQuantile(v);
    r->Add(metric + ".p99_us", t.value, "us",
           "p" + Fmt("%.1f", t.percentile) + " of n=" + Count(t.samples));
  }
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

Tail TailQuantile(const std::vector<double>& values, double want) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  const double n = static_cast<double>(values.size());
  // At least ten samples strictly above the chosen rank.
  const double limit = std::max(0.0, (n - 10.0) / n * 100.0);
  t.percentile = std::min(want, std::floor(limit * 10.0) / 10.0);
  t.value = Quantile(values, t.percentile / 100.0);
  return t;
}

UnitLatency Summarize(const std::vector<double>& op_us) {
  return UnitLatency{Quantile(op_us, 0.5), Quantile(op_us, 0.9),
                     TailQuantile(op_us).value};
}

double UnitMedian(const std::vector<UnitLatency>& units,
                  double UnitLatency::*quantile) {
  std::vector<double> v;
  for (const UnitLatency& u : units) v.push_back(u.*quantile);
  return Median(v);
}

Usage ReadUsage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.vol_ctx = static_cast<double>(ru.ru_nvcsw);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.user_s - b.user_s, a.sys_s - b.sys_s, a.vol_ctx - b.vol_ctx};
}

Usage operator+(const Usage& a, const Usage& b) {
  return Usage{a.user_s + b.user_s, a.sys_s + b.sys_s, a.vol_ctx + b.vol_ctx};
}

double CpuSeconds(const Usage& u) { return u.user_s + u.sys_s; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

dse::MetricsSnapshot SumNodes(
    const std::vector<std::map<std::string, std::uint64_t>>& nodes) {
  dse::MetricsSnapshot out;
  for (const auto& node : nodes) {
    for (const auto& [k, v] : node) out[k] += v;
  }
  return out;
}

dse::MetricsSnapshot Delta(const dse::MetricsSnapshot& after,
                           const dse::MetricsSnapshot& before) {
  dse::MetricsSnapshot out;
  for (const auto& [k, v] : after) {
    const std::uint64_t b = Get(before, k);
    out[k] = v >= b ? v - b : 0;
  }
  return out;
}

std::uint64_t Get(const dse::MetricsSnapshot& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

std::vector<double> ClientOpLatencies(const std::vector<Span>& spans,
                                      std::int64_t from_ns,
                                      std::int64_t to_ns) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (IsClientOp(s.name) && s.start_ns >= from_ns && s.end_ns <= to_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<std::int64_t> ClientOpEnds(const std::vector<Span>& spans,
                                       std::int64_t from_ns,
                                       std::int64_t to_ns) {
  std::vector<std::int64_t> out;
  for (const Span& s : spans) {
    if (IsClientOp(s.name) && s.start_ns >= from_ns && s.end_ns <= to_ns) {
      out.push_back(s.end_ns);
    }
  }
  return out;
}

std::vector<Slice> MakeSlices(std::int64_t from_ns, std::int64_t to_ns) {
  return std::vector<Slice>(
      static_cast<std::size_t>(to_ns > from_ns ? (to_ns - from_ns) / kSliceNs : 0));
}

void CountInSlice(std::vector<Slice>* slices, std::int64_t from_ns,
                  std::int64_t end_ns) {
  if (end_ns < from_ns) return;
  const auto i = static_cast<std::size_t>((end_ns - from_ns) / kSliceNs);
  if (i >= slices->size()) return;
  Slice& s = (*slices)[i];
  if (s.ops == 0 || end_ns < s.first_ns) s.first_ns = end_ns;
  if (s.ops == 0 || end_ns > s.last_ns) s.last_ns = end_ns;
  ++s.ops;
}

void MergeSlices(std::vector<Slice>* into, const std::vector<Slice>& from) {
  into->resize(std::max(into->size(), from.size()));
  for (std::size_t i = 0; i < from.size(); ++i) {
    Slice& s = (*into)[i];
    const Slice& f = from[i];
    if (f.ops == 0) continue;
    s.first_ns = s.ops == 0 ? f.first_ns : std::min(s.first_ns, f.first_ns);
    s.last_ns = s.ops == 0 ? f.last_ns : std::max(s.last_ns, f.last_ns);
    s.ops += f.ops;
  }
}

std::vector<double> SliceRates(const std::vector<Slice>& slices) {
  std::vector<double> rates;
  for (const Slice& s : slices) {
    if (s.ops >= 2 && s.last_ns > s.first_ns) {
      rates.push_back((s.ops - 1) * 1e9 / static_cast<double>(s.last_ns - s.first_ns));
    }
  }
  return rates;
}

std::vector<double> SliceRates(const std::vector<std::int64_t>& end_ns,
                               std::int64_t from_ns, std::int64_t to_ns) {
  std::vector<Slice> slices = MakeSlices(from_ns, to_ns);
  for (const std::int64_t end : end_ns) CountInSlice(&slices, from_ns, end);
  return SliceRates(slices);
}

void Append(Measured* all, const Measured& m) {
  all->unit = m.unit;
  all->op = m.op;
  all->rate_basis = m.rate_basis;
  all->seconds += m.seconds;
  all->units_done += m.units_done;
  all->attempted += m.attempted;
  all->failed += m.failed;
  all->usage = all->usage + m.usage;
  all->peak_rss_mb = std::max(all->peak_rss_mb, m.peak_rss_mb);
  for (const auto& [k, v] : m.counters) all->counters[k] += v;
  all->unit_s.insert(all->unit_s.end(), m.unit_s.begin(), m.unit_s.end());
  all->unit_lat.insert(all->unit_lat.end(), m.unit_lat.begin(), m.unit_lat.end());
  all->unit_cpu_s.insert(all->unit_cpu_s.end(), m.unit_cpu_s.begin(),
                         m.unit_cpu_s.end());
  all->op_us.insert(all->op_us.end(), m.op_us.begin(), m.op_us.end());
  all->slice_rates.insert(all->slice_rates.end(), m.slice_rates.begin(),
                          m.slice_rates.end());
  all->spans.insert(all->spans.end(), m.spans.begin(), m.spans.end());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note,
                 bool in_result) {
  metrics_.push_back(
      Metric{name, std::isfinite(value) ? value : 0.0, unit, note, in_result});
}

void Report::Line(const std::string& text) { lines_.push_back(text); }

void Report::Print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const auto& line : lines_) std::printf("# %s\n", line.c_str());
  for (const auto& m : metrics_) {
    std::printf("  %-34s %16.6f %-10s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(),
                m.in_result ? "" : " [not in the result line]");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& m : metrics_) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

// Report lines every run carries: the workload's definitions of work unit
// and op, its own lines, and the attempted/failed tally.
void AddCommonLines(Report* report, const Measured& m) {
  report->Line("work unit: " + m.unit + "; op: " + m.op);
  for (const std::string& line : m.lines) report->Line(line);
  report->Line("measured phase " + Fmt("%.3f", m.seconds) + " s, " +
               Fmt("%.0f", m.units_done) + " work units, " +
               Count(m.attempted) + " ops attempted, " + Count(m.failed) +
               " failed (failed_frac " +
               Fmt("%.6f", Ratio(static_cast<double>(m.failed),
                                 static_cast<double>(m.attempted))) +
               ")");
}

// wall_s, ops_per_s and op_p50_us of `m`, with op_p90/p99 as a line. They
// go in the result line only when `in_result` (the traced run's per-layer
// metrics): on a shared virtual machine they move with how fast the host
// wakes a halted virtual CPU, 0.25 to 0.35 in quartile spread between runs
// of the same code, so they are not bounded (see perfbench/README.md).
void AddWallClock(Report* report, const Measured& m, bool in_result) {
  report->Add("wall_s", Median(m.unit_s), "s",
              "median of " + Count(m.unit_s.size()) + " work units", in_result);
  const double completed = static_cast<double>(m.attempted - m.failed);
  report->Add("ops_per_s", Median(m.slice_rates), "1/s",
              "median over " + Count(m.slice_rates.size()) + " " +
                  m.rate_basis + "; completions " +
                  Fmt("%.1f", Ratio(completed, m.seconds)) + " (" +
                  Fmt("%.0f", completed) + " ops in " + Fmt("%.3f", m.seconds) +
                  " s)",
              in_result);
  const std::string units = " over " + Count(m.unit_lat.size()) + " work units";
  report->Add("op_p50_us", UnitMedian(m.unit_lat, &UnitLatency::p50), "us",
              "median" + units + " of each unit's median", in_result);
  std::string whole;
  if (!m.op_us.empty()) {
    const Tail tail = TailQuantile(m.op_us);
    whole = "; whole run p" + Fmt("%.1f", tail.percentile) + " of n=" +
            Count(tail.samples) + " is " + Fmt("%.3f", tail.value);
  }
  report->Line("op_p90_us " + Fmt("%.3f", UnitMedian(m.unit_lat, &UnitLatency::p90)) +
               " us, op_p99_us " + Fmt("%.3f", UnitMedian(m.unit_lat, &UnitLatency::p99)) +
               " us: medians" + units + " of each unit's p90 and p99" + whole);
}

}  // namespace

void AddEndToEnd(Report* report, const std::vector<double>& setup_s,
                 const Measured& m) {
  AddCommonLines(report, m);
  report->Add("setup_s", Median(setup_s), "s",
              "median of " + Count(setup_s.size()) + " set-ups (min " +
                  Fmt("%.6f", Quantile(setup_s, 0)) + ", max " +
                  Fmt("%.6f", Quantile(setup_s, 1)) + ")");
  report->Add("cpu_s_per_unit", Median(m.unit_cpu_s), "s/unit",
              "median over " + Count(m.unit_cpu_s.size()) + " pieces; " +
                  Fmt("%.3f", m.usage.user_s) + " s user + " +
                  Fmt("%.3f", m.usage.sys_s) + " s sys over " +
                  Fmt("%.0f", m.units_done) + " work units");
  report->Add("peak_rss_mb", m.peak_rss_mb, "MB");
  AddWallClock(report, m, false);
}

void AddPerLayer(Report* report, const Measured& t, const Measured& u) {
  AddCommonLines(report, t);
  report->Line("wall_s, ops_per_s, op_p50_us and the next line: the untraced half");
  AddWallClock(report, u, true);
  std::unordered_map<std::uint16_t, std::vector<double>> by_name;
  std::unordered_map<std::uint64_t, double> child_ns;  // by parent id
  for (const Span& s : t.spans) {
    by_name[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  const SpanNames& n = Names();
  const std::pair<const char*, std::uint16_t> client[] = {
      {"client.read_local", n.read_local},   {"client.read_remote", n.read_remote},
      {"client.bulk_read", n.bulk_read},     {"client.write_local", n.write_local},
      {"client.write_remote", n.write_remote}, {"client.bulk_write", n.bulk_write},
      {"client.atomic", n.atomic},           {"client.lock_pair", n.lock_pair},
      {"client.barrier", n.barrier},
  };
  for (const auto& [metric, name] : client) {
    AddLatency(report, metric, by_name[name], true);
  }
  const std::string units = " over " + Count(t.unit_lat.size()) + " work units";
  report->Add("op_p90_us", UnitMedian(t.unit_lat, &UnitLatency::p90), "us",
              "median" + units + " of each unit's p90");
  report->Add("op_p99_us", UnitMedian(t.unit_lat, &UnitLatency::p99), "us",
              "median" + units + " of each unit's p99");
  AddLatency(report, "pm.spawn_join", by_name[n.spawn_join], false);
  AddLatency(report, "sched.submit", by_name[n.submit], false);

  const auto& c = t.counters;
  const double ops = static_cast<double>(t.attempted);
  auto per_op = [&](const std::string& metric, const std::string& counter,
                    const std::string& unit) {
    const double v = static_cast<double>(Get(c, counter));
    report->Add(metric, Ratio(v, ops), unit,
                counter + "=" + Fmt("%.0f", v) + " over ops=" + Fmt("%.0f", ops));
  };
  per_op("net.msgs_per_op", "net.msgs_sent", "1/op");
  per_op("net.bytes_per_op", "net.bytes_sent", "B/op");
  per_op("wire.msgs_per_op", "wire.msgs_sent", "1/op");
  const double forwards = static_cast<double>(Get(c, "gmm.repl.forwards"));
  const double writes = static_cast<double>(Get(c, "dsm.home_writes"));
  report->Add("gmm.repl.forwards_per_write", Ratio(forwards, writes), "1/write",
              "gmm.repl.forwards=" + Fmt("%.0f", forwards) +
                  " over dsm.home_writes=" + Fmt("%.0f", writes));
  per_op("dsm.home_reads", "dsm.home_reads", "1/op");
  per_op("dsm.home_writes", "dsm.home_writes", "1/op");
  per_op("sync.barrier_waits", "sync.barrier_waits", "1/op");
  per_op("sync.lock_waits", "sync.lock_waits", "1/op");
  for (const char* counter : {"rpc.retry", "rpc.timeout", "recovery.epoch_bounces"}) {
    report->Add(counter, static_cast<double>(Get(c, counter)), "count",
                "must be 0 (checked): no faults are injected");
  }

  const std::string done = " s over " + Fmt("%.0f", t.units_done) + " work units";
  report->Add("proc.cpu_user_s", Ratio(t.usage.user_s, t.units_done), "s/unit",
              Fmt("%.3f", t.usage.user_s) + done);
  report->Add("proc.cpu_sys_s", Ratio(t.usage.sys_s, t.units_done), "s/unit",
              Fmt("%.3f", t.usage.sys_s) + done);
  report->Add("proc.vol_ctx_switches_per_op", Ratio(t.usage.vol_ctx, ops), "1/op",
              Fmt("%.0f", t.usage.vol_ctx) + " over ops=" + Fmt("%.0f", ops));

  for (const ExtraMetric& e : kExtras) {
    auto it = t.extra.find(e.name);
    if (it == t.extra.end()) {
      report->Add(e.name, 0, e.unit, std::string("absent: ") + e.absent);
    } else {
      report->Add(e.name, it->second.first, e.unit, it->second.second);
    }
  }
  report->Add("failed_frac",
              Ratio(static_cast<double>(t.failed), ops), "frac",
              Count(t.failed) + " of " + Count(t.attempted));

  const double traced = Median(t.unit_s);
  const double untraced = Median(u.unit_s);
  report->Add("trace.overhead_frac", untraced > 0 ? traced / untraced - 1 : 0,
              "frac",
              "wall_s median traced " + Fmt("%.6f", traced) + " vs untraced " +
                  Fmt("%.6f", untraced) + "; op_p50_us " +
                  Fmt("%.2f", UnitMedian(t.unit_lat, &UnitLatency::p50)) +
                  " vs " + Fmt("%.2f", UnitMedian(u.unit_lat, &UnitLatency::p50)));
  report->Add("trace.spans", static_cast<double>(t.spans.size()), "count");

  // Self time per span name: duration minus the time its child spans cover.
  std::map<std::string, std::pair<double, double>> self;  // total, self (ns)
  std::map<std::string, std::size_t> counts;
  for (const Span& s : t.spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    auto it = child_ns.find(s.id);
    const double children = it == child_ns.end() ? 0 : std::min(d, it->second);
    auto& entry = self[NameOf(s.name)];
    entry.first += d;
    entry.second += d - children;
    ++counts[NameOf(s.name)];
  }
  report->Line("self time by span (count, mean us, mean self us, self share):");
  for (const auto& [name, v] : self) {
    const double cnt = static_cast<double>(counts[name]);
    report->Line("  " + name + "  " + Count(counts[name]) + "  " +
                 Fmt("%.2f", v.first / cnt / 1e3) + "  " +
                 Fmt("%.2f", v.second / cnt / 1e3) + "  " +
                 Fmt("%.3f", Ratio(v.second, v.first)));
  }
}

}  // namespace perfbench
