// Schema-sync contract for the machine-readable stats exports
// (docs/observability.md): `dse_run --stats-json` and `--stats-csv` are two
// renderings of the SAME counter set. A consumer that discovers counter
// names from one must find the identical names in the other — including the
// serving front door's sched.* family, which lives only on the scheduler
// node and is the easy one to drop from an aggregate.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "dse/sched/serving.h"
#include "dse/sim_runtime.h"
#include "dse/ssi/stats.h"
#include "platform/profile.h"

namespace dse {
namespace {

// Counter names in the JSON export: every quoted key except the two
// structural ones. Counter names never contain quotes or escapes.
std::set<std::string> JsonCounterNames(const std::string& json) {
  std::set<std::string> names;
  size_t pos = 0;
  while ((pos = json.find('"', pos)) != std::string::npos) {
    const size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = json.substr(pos + 1, end - pos - 1);
    size_t after = end + 1;
    while (after < json.size() && json[after] == ' ') ++after;
    if (after < json.size() && json[after] == ':' && key != "nodes" &&
        key != "cluster") {
      names.insert(key);
    }
    pos = end + 1;
  }
  return names;
}

// Counter names in the CSV export: the first field of every data row.
std::set<std::string> CsvCounterNames(const std::string& csv) {
  std::set<std::string> names;
  size_t start = csv.find('\n');  // skip the header row
  EXPECT_NE(start, std::string::npos) << "missing CSV header";
  if (start == std::string::npos) return names;
  ++start;
  while (start < csv.size()) {
    size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const std::string line = csv.substr(start, end - start);
    const size_t comma = line.find(',');
    if (comma != std::string::npos) names.insert(line.substr(0, comma));
    start = end + 1;
  }
  return names;
}

// gtest's ASSERT_* return void, so the helpers above are wrapped.
void ExpectSameSchema(const std::vector<MetricsSnapshot>& per_node,
                      const MetricsSnapshot& cluster_only = {}) {
  const std::set<std::string> json_names =
      JsonCounterNames(ssi::StatsToJson(per_node, cluster_only));
  const std::set<std::string> csv_names =
      CsvCounterNames(ssi::StatsToCsv(per_node, cluster_only));

  EXPECT_EQ(json_names, csv_names);

  // Both must carry exactly the union the aggregate sees.
  MetricsSnapshot total = ssi::Aggregate(per_node);
  for (const auto& [name, value] : cluster_only) total[name] += value;
  std::set<std::string> want;
  for (const auto& [name, value] : total) want.insert(name);
  EXPECT_EQ(json_names, want);
}

// Per-node key asymmetry is the trap: a counter that exists only on one
// node (the scheduler's ledger on node 0, a fault counter on the victim)
// must still appear in both exports.
TEST(StatsSchema, AsymmetricSnapshotsRenderIdenticalNameSets) {
  std::vector<MetricsSnapshot> per_node(3);
  per_node[0]["sched.admitted"] = 7;
  per_node[0]["rpc.calls"] = 10;
  per_node[1]["rpc.calls"] = 4;
  per_node[2]["gmm.reads"] = 2;
  MetricsSnapshot cluster_only;
  cluster_only["bus.collisions"] = 1;

  ExpectSameSchema(per_node, cluster_only);
}

// The planned-maintenance counter family (docs/recovery.md): the drain
// ledger lives on different nodes (the backup counts recovery.drains, the
// source counts the handoff volume, the scheduler node counts drained
// jobs, and recovery.draining_nodes is a gauge that only the members'
// snapshots carry while a drain is in flight). The schema contract must
// hold for exactly this asymmetric shape.
TEST(StatsSchema, DrainCountersRenderIdenticalNameSets) {
  std::vector<MetricsSnapshot> per_node(4);
  per_node[0]["sched.drained_jobs"] = 2;
  per_node[0]["recovery.draining_nodes"] = 1;
  per_node[1]["recovery.handoff.chunks"] = 3;
  per_node[1]["recovery.handoff.bytes"] = 24576;
  per_node[2]["recovery.drains"] = 1;
  per_node[3]["recovery.draining_nodes"] = 1;
  MetricsSnapshot cluster_only;
  cluster_only["fault.drained_nodes"] = 1;

  ExpectSameSchema(per_node, cluster_only);

  const std::set<std::string> names =
      JsonCounterNames(ssi::StatsToJson(per_node, cluster_only));
  for (const char* required :
       {"recovery.drains", "recovery.handoff.chunks",
        "recovery.handoff.bytes", "recovery.draining_nodes",
        "sched.drained_jobs", "fault.drained_nodes"}) {
    EXPECT_TRUE(names.count(required) > 0) << "missing " << required;
  }
}

// The failover counter family (docs/recovery.md, docs/fault_model.md): an
// epoch bounce is counted where it was served (recovery.epoch_bounces), its
// resend on the calling node (recovery.client_retries, on every runtime),
// and replies that outlived their call where they landed (rpc.stale_resp in
// a task's mailbox, rpc.orphan_resp at the service loop).
TEST(StatsSchema, FailoverCountersRenderIdenticalNameSets) {
  std::vector<MetricsSnapshot> per_node(3);
  per_node[0]["recovery.client_retries"] = 2;
  per_node[0]["rpc.stale_resp"] = 1;
  per_node[1]["recovery.epoch_bounces"] = 2;
  per_node[2]["recovery.evictions"] = 1;
  per_node[2]["rpc.orphan_resp"] = 1;

  ExpectSameSchema(per_node);

  const std::set<std::string> names =
      JsonCounterNames(ssi::StatsToJson(per_node, {}));
  for (const char* required :
       {"recovery.client_retries", "recovery.epoch_bounces",
        "rpc.stale_resp", "rpc.orphan_resp"}) {
    EXPECT_TRUE(names.count(required) > 0) << "missing " << required;
  }
}

// End-to-end: after a real serving run the sched.* family (global ledger
// and per-tenant counters) flows through both exports with identical name
// sets.
TEST(StatsSchema, ServingRunExportsSchedCountersInBothFormats) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  opts.sched.enabled = true;
  opts.sched.slots_per_node = 4;
  opts.sched.tenant_quota = 4;
  opts.sched.queue_cap = 16;
  SimRuntime rt(opts);
  sched::RegisterServingTasks(&rt.registry());

  sched::ServingConfig cfg;
  cfg.threaded = false;
  cfg.tenants = 2;
  cfg.jobs_per_tenant = 10;
  cfg.gap_us = 2000;
  cfg.service_us = 2000;
  cfg.gang = 2;
  cfg.gang_every = 5;
  cfg.seed = 3;

  const SimReport report =
      rt.Run("sched.serving_main", sched::EncodeServingConfig(cfg));

  ExpectSameSchema(report.node_stats);

  const std::set<std::string> names =
      JsonCounterNames(ssi::StatsToJson(report.node_stats));
  // Only counters that are non-zero after a clean run: snapshots elide
  // zero counters by design (CounterSnapshot), so e.g. a zero
  // sched.invariant_violations is legitimately absent.
  for (const char* required :
       {"sched.submitted", "sched.admitted", "sched.completed",
        "sched.members_started", "sched.tenant.0.admitted",
        "sched.tenant.1.admitted"}) {
    EXPECT_TRUE(names.count(required) > 0) << "missing " << required;
  }
}

}  // namespace
}  // namespace dse
