#include "perfbench/src/recorder.h"

#include <time.h>

#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct Buffer {
  std::mutex mu;
  std::vector<Span> spans;
};

struct Registry {
  std::mutex mu;
  std::deque<std::unique_ptr<Buffer>> buffers;  // never freed: threads die
  std::vector<Buffer*> free_list;               // buffers of exited threads
  std::map<std::string, std::uint16_t> ids;
  std::vector<std::string> names{""};
};

Registry& Reg() {
  static Registry* reg = new Registry;  // outlives every thread
  return *reg;
}

constexpr std::size_t kSpillSpans = 1024;

std::atomic<bool> g_tracing{false};
std::mutex g_spill_mu;
std::FILE* g_spill = nullptr;  // guarded by g_spill_mu
std::atomic<std::uint64_t> g_next_id{1};

// Each thread borrows a buffer and returns it to the free list on exit, so
// the scheduler probe's thousands of short job threads reuse a few buffers.
struct ThreadSlot {
  Buffer* buffer = nullptr;
  std::vector<std::uint64_t> stack;  // open traced spans: id, then req
  ~ThreadSlot() {
    if (buffer == nullptr) return;
    std::lock_guard<std::mutex> lock(Reg().mu);
    Reg().free_list.push_back(buffer);
  }
  Buffer& Get() {
    if (buffer != nullptr) return *buffer;
    std::lock_guard<std::mutex> lock(Reg().mu);
    if (!Reg().free_list.empty()) {
      buffer = Reg().free_list.back();
      Reg().free_list.pop_back();
    } else {
      Reg().buffers.push_back(std::make_unique<Buffer>());
      buffer = Reg().buffers.back().get();
    }
    return *buffer;
  }
};

thread_local ThreadSlot t_slot;

}  // namespace

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::uint16_t InternName(const std::string& name) {
  auto& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.ids.find(name);
  if (it != reg.ids.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(reg.names.size());
  reg.names.push_back(name);
  reg.ids.emplace(name, id);
  return id;
}

std::string NameOf(std::uint16_t id) {
  auto& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  return id < reg.names.size() ? reg.names[id] : std::string("?");
}

void Recorder::SetTracing(bool on) { g_tracing.store(on); }
bool Recorder::tracing() { return g_tracing.load(std::memory_order_relaxed); }
void Recorder::SetIdBase(std::uint64_t base) { g_next_id.store(base); }

void Recorder::Record(const Span& span) {
  Buffer& b = t_slot.Get();
  std::lock_guard<std::mutex> lock(b.mu);
  b.spans.push_back(span);
  if (b.spans.size() < kSpillSpans) return;
  std::lock_guard<std::mutex> spill_lock(g_spill_mu);
  if (g_spill == nullptr) return;
  std::fwrite(b.spans.data(), sizeof(Span), b.spans.size(), g_spill);
  b.spans.clear();
}

bool Recorder::SpillTo(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_spill_mu);
  g_spill = std::fopen((path + ".spill").c_str(), "wb");
  return g_spill != nullptr;
}

bool Recorder::CloseSpill() {
  std::lock_guard<std::mutex> lock(g_spill_mu);
  if (g_spill == nullptr) return true;
  const bool ok = std::fclose(g_spill) == 0;
  g_spill = nullptr;
  return ok;
}

std::vector<Span> Recorder::Collect() {
  std::vector<Buffer*> all;
  {
    std::lock_guard<std::mutex> lock(Reg().mu);
    for (auto& b : Reg().buffers) all.push_back(b.get());
  }
  std::vector<Span> out;
  for (Buffer* b : all) {
    std::lock_guard<std::mutex> lock(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Recorder::Clear() {
  std::lock_guard<std::mutex> lock(Reg().mu);
  for (auto& b : Reg().buffers) {
    std::lock_guard<std::mutex> block(b->mu);
    b->spans.clear();
  }
}

SpanScope::SpanScope(std::uint16_t name, int node, bool sample) {
  const bool traced = Recorder::tracing();
  record_ = traced || sample;
  if (!record_) return;
  span_.name = name;
  span_.node = static_cast<std::int16_t>(node);
  if (traced) {
    auto& stack = t_slot.stack;
    span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    if (!stack.empty()) {
      span_.parent = stack[stack.size() - 2];
      span_.req = stack.back();
    }
    // A request-level span with no request around it starts a request.
    if (span_.req == 0 && sample) span_.req = span_.id;
    stack.push_back(span_.id);
    stack.push_back(span_.req);
    pushed_ = true;
  }
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (!record_) return;
  span_.end_ns = NowNs();
  if (pushed_) {
    t_slot.stack.resize(t_slot.stack.size() - 2);
  }
  Recorder::Record(span_);
}

std::size_t WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans,
                             std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::size_t written = 0;
  for (const Span& s : spans) {
    if (written == limit) break;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"req\":%llu}}\n",
                 written == 0 ? "" : ",", NameOf(s.name).c_str(), s.node,
                 static_cast<unsigned long long>(s.req),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
    ++written;
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return written;
}

bool DumpSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(Reg().mu);
    names = Reg().names;
  }
  const std::uint64_t name_count = names.size();
  std::fwrite(&name_count, sizeof(name_count), 1, f);
  for (const auto& n : names) {
    const std::uint64_t len = n.size();
    std::fwrite(&len, sizeof(len), 1, f);
    std::fwrite(n.data(), 1, n.size(), f);
  }
  const std::uint64_t count = spans.size();
  std::fwrite(&count, sizeof(count), 1, f);
  if (count > 0) std::fwrite(spans.data(), sizeof(Span), spans.size(), f);
  return std::fclose(f) == 0;
}

bool LoadSpans(const std::string& path, std::vector<Span>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = true;
  std::uint64_t name_count = 0;
  ok = ok && std::fread(&name_count, sizeof(name_count), 1, f) == 1;
  std::vector<std::uint16_t> remap;
  for (std::uint64_t i = 0; ok && i < name_count; ++i) {
    std::uint64_t len = 0;
    ok = std::fread(&len, sizeof(len), 1, f) == 1 && len < 4096;
    std::string name(ok ? len : 0, '\0');
    ok = ok && std::fread(name.data(), 1, len, f) == len;
    remap.push_back(ok ? InternName(name) : 0);
  }
  std::uint64_t count = 0;
  ok = ok && std::fread(&count, sizeof(count), 1, f) == 1;
  std::vector<Span> spans(ok ? count : 0);
  ok = ok && (count == 0 ||
              std::fread(spans.data(), sizeof(Span), count, f) == count);
  std::fclose(f);
  if (!ok) return false;
  if (std::FILE* spill = std::fopen((path + ".spill").c_str(), "rb")) {
    Span s;
    while (std::fread(&s, sizeof(Span), 1, spill) == 1) spans.push_back(s);
    std::fclose(spill);
  }
  for (Span& s : spans) {
    s.name = s.name < remap.size() ? remap[s.name] : 0;
    out->push_back(s);
  }
  return true;
}

}  // namespace perfbench
