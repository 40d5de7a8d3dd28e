// A Task that forwards every call to the real one and times the calls into
// the client library (dse/client) from outside.
//
// Data-plane and synchronization calls are request-level samples: they are
// recorded in untraced runs too, because the apps_tcp latency metrics are
// made of them. Spawn/Join and the task's own lifetime
// ("task.<name>") are recorded in traced runs only.
//
// Classification of a call (the span name):
//   client.read_local / client.read_remote    Read of <= 64 B, by home node
//   client.bulk_read                          Read of > 64 B
//   client.write_local / client.write_remote  Write of <= 64 B, by home node
//   client.bulk_write                         Write of > 64 B
//   client.atomic                             AtomicFetchAdd / CompareExchange
//   client.lock / client.unlock / client.barrier
//   pm.spawn / pm.join
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dse/registry.h"
#include "dse/task.h"

namespace perfbench {

struct SpanNames {
  std::uint16_t read_local, read_remote, bulk_read;
  std::uint16_t write_local, write_remote, bulk_write;
  std::uint16_t atomic, lock, unlock, lock_pair, barrier;
  std::uint16_t spawn, join, spawn_join, submit;
};
const SpanNames& Names();

// True for the span names that count as one client operation in the
// apps_tcp latency metrics.
bool IsClientOp(std::uint16_t name);

class MeteredTask final : public dse::Task {
 public:
  explicit MeteredTask(dse::Task& inner) : inner_(inner) {}

  dse::NodeId node() const override { return inner_.node(); }
  dse::Gpid gpid() const override { return inner_.gpid(); }
  int num_nodes() const override { return inner_.num_nodes(); }
  const std::vector<std::uint8_t>& arg() const override {
    return inner_.arg();
  }
  void SetResult(std::vector<std::uint8_t> result) override {
    inner_.SetResult(std::move(result));
  }

  dse::Result<dse::gmm::GlobalAddr> AllocStriped(
      std::uint64_t size, std::uint8_t block_log2) override {
    return inner_.AllocStriped(size, block_log2);
  }
  dse::Result<dse::gmm::GlobalAddr> AllocOnNode(std::uint64_t size,
                                                dse::NodeId home) override {
    return inner_.AllocOnNode(size, home);
  }
  dse::Status Free(dse::gmm::GlobalAddr addr) override {
    return inner_.Free(addr);
  }

  dse::Status Read(dse::gmm::GlobalAddr addr, void* out,
                   std::uint64_t len) override;
  dse::Status Write(dse::gmm::GlobalAddr addr, const void* src,
                    std::uint64_t len) override;
  dse::Result<std::int64_t> AtomicFetchAdd(dse::gmm::GlobalAddr addr,
                                           std::int64_t delta) override;
  dse::Result<std::int64_t> AtomicCompareExchange(
      dse::gmm::GlobalAddr addr, std::int64_t expected,
      std::int64_t desired) override;

  dse::Status Lock(std::uint64_t lock_id) override;
  dse::Status Unlock(std::uint64_t lock_id) override;
  dse::Status Barrier(std::uint64_t barrier_id, int parties) override;

  dse::Result<dse::Gpid> Spawn(const std::string& task_name,
                               std::vector<std::uint8_t> arg,
                               dse::NodeId node_hint = -1) override;
  dse::Result<std::vector<std::uint8_t>> Join(dse::Gpid gpid) override;

  void Compute(double work_units) override { inner_.Compute(work_units); }
  void Print(const std::string& text) override { inner_.Print(text); }
  dse::Result<std::vector<dse::proto::PsEntry>> ClusterPs() override {
    return inner_.ClusterPs();
  }
  dse::Result<std::vector<std::map<std::string, std::uint64_t>>>
  ClusterStats() override {
    return inner_.ClusterStats();
  }
  dse::Status PublishName(const std::string& name,
                          std::uint64_t value) override {
    return inner_.PublishName(name, value);
  }
  dse::Result<std::uint64_t> LookupName(const std::string& name) override {
    return inner_.LookupName(name);
  }
  dse::Result<std::uint64_t> SubmitJob(std::uint32_t tenant,
                                       const std::string& task_name,
                                       std::vector<std::uint8_t> arg,
                                       std::uint32_t gang = 1,
                                       dse::NodeId locality_hint = -1) override;
  dse::Result<std::map<std::string, std::uint64_t>> SchedStat() override {
    return inner_.SchedStat();
  }

 private:
  std::uint16_t ClassifyAccess(dse::gmm::GlobalAddr addr, std::uint64_t len,
                               bool write) const;

  dse::Task& inner_;
};

// Registers into `dst` every task that `reg` registers, each wrapped so it
// runs against a MeteredTask under a "task.<name>" span. Spawns made by a
// wrapped task resolve to the wrapped versions, so a whole application
// (e.g. gauss.main and its workers) is metered.
void RegisterMetered(dse::TaskRegistry& dst,
                     const std::function<void(dse::TaskRegistry&)>& reg);

}  // namespace perfbench
