// In-memory span recorder for the benchmark.
//
// Every span is timed on CLOCK_MONOTONIC, which is shared by all processes
// on one host, so spans from the forked TCP node processes line up with the
// launcher's clock. Spans stay in per-thread buffers until Collect(); nothing
// is written while a workload runs.
//
// Two modes:
//   * untraced (the end-to-end run): only request-level samples are kept —
//     name, node, start and end; no ids, no parent links, no task or unit
//     spans. This is the minimum the end-to-end latency metrics need.
//   * traced: every SpanScope is recorded with a span id, the id of the span
//     that encloses it on the same thread (its parent), and a request id
//     shared by all spans of one client operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t NowNs();

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::uint16_t name = 0;
  std::int16_t node = -1;
};

// Span names are interned per process; name ids are not stable across
// processes (dumps carry their own name table).
std::uint16_t InternName(const std::string& name);
std::string NameOf(std::uint16_t id);

class Recorder {
 public:
  static void SetTracing(bool on);
  static bool tracing();
  // Span ids continue from `base`; node processes use disjoint bases so
  // ids stay unique when their dumps are merged.
  static void SetIdBase(std::uint64_t base);
  static void Record(const Span& span);
  // From now on a thread whose buffer fills appends it to `path` (raw Span
  // records) and empties it, so memory stays bounded however long the run.
  // The apps_tcp node processes spill: their peak RSS is a measured metric.
  // CloseSpill flushes and closes the file; LoadSpans(p) reads p + ".spill"
  // when a process spilled to it.
  static bool SpillTo(const std::string& path);
  static bool CloseSpill();
  // Copies every buffered span. Threads may still be appending; each
  // buffer is locked while copied.
  static std::vector<Span> Collect();
  static void Clear();
};

// Times one interval on the calling thread. `sample` marks a request-level
// span that is recorded in untraced runs too; other spans exist only in
// traced runs.
class SpanScope {
 public:
  SpanScope(std::uint16_t name, int node, bool sample);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Span span_;
  bool record_ = false;
  bool pushed_ = false;
};

// Writes spans as a Chrome trace (chrome://tracing, Perfetto): one complete
// event per span, with id/parent/req in args. At most `limit` spans are
// written; returns the number written.
std::size_t WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans,
                             std::size_t limit);

// Binary dump of spans plus their name table, for handing spans from a node
// process to the launcher. Load re-interns names in the reading process and
// appends the spans of `path` + ".spill", if that file exists.
bool DumpSpans(const std::string& path, const std::vector<Span>& spans);
bool LoadSpans(const std::string& path, std::vector<Span>* out);

}  // namespace perfbench
