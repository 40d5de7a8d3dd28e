// Metric arithmetic and output shared by the workloads.
//
// A workload measures one phase (the "measured phase") into a Measured and
// hands it to AddEndToEnd (untraced run) or AddPerLayer (traced run). The
// Report prints a human-readable table, then one JSON object as the last
// line of standard output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "perfbench/src/recorder.h"

namespace perfbench {

// Nearest-rank quantile (q in [0,1]) of a sample; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// The highest percentile, at most `want`, that has at least ten samples
// beyond it. For n >= 1000 samples that is the p99 itself.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail TailQuantile(const std::vector<double>& values, double want = 99.0);

// Op latency quantiles within one work unit.
struct UnitLatency {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;  // TailQuantile: p99 once a unit holds >= 1000 ops
};
UnitLatency Summarize(const std::vector<double>& op_us);
// Median over work units of one quantile.
double UnitMedian(const std::vector<UnitLatency>& units,
                  double UnitLatency::*quantile);

// getrusage: CPU and voluntary context switches.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double vol_ctx = 0;
};
Usage ReadUsage(int who);  // RUSAGE_SELF or RUSAGE_CHILDREN

// Peak RSS of this process image (VmHWM). Not getrusage's ru_maxrss: that
// keeps the peak of the image before exec, i.e. of the parent that forked
// this process (run.py's Python, or the apps_tcp launcher).
double PeakRssMb();
Usage operator-(const Usage& a, const Usage& b);
Usage operator+(const Usage& a, const Usage& b);
// User plus system seconds.
double CpuSeconds(const Usage& u);
// CPU seconds of every thread of this process so far
// (CLOCK_PROCESS_CPUTIME_ID, nanosecond resolution).
double ProcessCpuSeconds();

// Sums per-node counter snapshots into one cluster-wide map.
dse::MetricsSnapshot SumNodes(
    const std::vector<std::map<std::string, std::uint64_t>>& nodes);
dse::MetricsSnapshot Delta(const dse::MetricsSnapshot& after,
                           const dse::MetricsSnapshot& before);
std::uint64_t Get(const dse::MetricsSnapshot& m, const std::string& key);

// Everything one measured phase produced. A "work unit" is the fixed piece
// of work wall_s times; an "op" is the request whose latency op_p50_us and
// op_p99_us describe (see perfbench/README.md for each workload's).
struct Measured {
  std::string unit;                  // e.g. "1000 ops of one client"
  std::string op;                    // e.g. "one GMM operation"
  double seconds = 0;                // length of the measured phase
  double units_done = 0;             // work units completed in the phase
  std::vector<double> unit_s;        // wall seconds per work unit
  // Op latency quantiles within each work unit; the op_* metrics are their
  // medians over units, so a stall of the (shared) host moves a few units,
  // not the figure.
  std::vector<UnitLatency> unit_lat;
  std::vector<double> op_us;         // every op latency, where kept
  std::vector<double> slice_rates;   // ops/s within each one-second slice
  std::string rate_basis = "one-second slices";  // what slice_rates are
  std::uint64_t attempted = 0;       // ops attempted
  std::uint64_t failed = 0;          // ops failed (or shed)
  Usage usage;                       // CPU over the measured phase
  // CPU seconds per work unit of each measured piece (a gmm_mixed segment,
  // an apps_tcp cluster launch), all of the workload's processes;
  // cpu_s_per_unit is their median.
  std::vector<double> unit_cpu_s;
  double peak_rss_mb = 0;            // peak RSS, summed over processes
  dse::MetricsSnapshot counters;     // ClusterStats delta over the phase
  std::vector<Span> spans;           // traced runs: every span
  // Workload-specific per-layer values (sched.*, sim.*, ...), by metric
  // name, with a note each (e.g. the base count of a ratio).
  std::map<std::string, std::pair<double, std::string>> extra;
  std::vector<std::string> lines;    // workload-specific report lines
};

// Adds a later measured piece of the same workload to `all`: sums the
// counts, CPU and counter deltas, concatenates the per-unit, per-piece,
// per-op and per-slice samples and spans, and keeps the highest peak RSS.
void Append(Measured* all, const Measured& m);

class Report {
 public:
  // A metric with `in_result` false is printed in the table only, not in
  // the final JSON line.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool in_result = true);
  void Line(const std::string& text);  // free-form report line
  // Prints the table and the final JSON line.
  void Print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_result;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
};

// End-to-end metrics (untraced run).
void AddEndToEnd(Report* report, const std::vector<double>& setup_s,
                 const Measured& m);

// Per-layer metrics (traced run). `untraced` is the same workload measured
// with tracing off in the same process, for the tracing overhead.
void AddPerLayer(Report* report, const Measured& traced,
                 const Measured& untraced);

// Op latencies (µs) of the spans that count as client operations.
std::vector<double> ClientOpLatencies(const std::vector<Span>& spans,
                                      std::int64_t from_ns,
                                      std::int64_t to_ns);
// End times of those spans.
std::vector<std::int64_t> ClientOpEnds(const std::vector<Span>& spans,
                                       std::int64_t from_ns,
                                       std::int64_t to_ns);

// ops_per_s is the median over one-second slices of the measured phase of
// the completion rate within the slice: like the per-unit medians, it lets
// a stall of the host move a few slices rather than the figure. A slice's
// rate is its completions after the first over the time from the first to
// the last, so it is not rounded to whole ops per second.
inline constexpr std::int64_t kSliceNs = 1000000000;
struct Slice {
  double ops = 0;
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;
};
// Slices of [from_ns, to_ns); only whole slices.
std::vector<Slice> MakeSlices(std::int64_t from_ns, std::int64_t to_ns);
// Counts one op completed at end_ns (ignored outside the slices).
void CountInSlice(std::vector<Slice>* slices, std::int64_t from_ns,
                  std::int64_t end_ns);
void MergeSlices(std::vector<Slice>* into, const std::vector<Slice>& from);
// Ops per second of each slice that completed at least two ops.
std::vector<double> SliceRates(const std::vector<Slice>& slices);
// Slice rates of the given completion times over [from_ns, to_ns).
std::vector<double> SliceRates(const std::vector<std::int64_t>& end_ns,
                               std::int64_t from_ns, std::int64_t to_ns);

}  // namespace perfbench
