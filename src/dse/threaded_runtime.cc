#include "dse/threaded_runtime.h"

#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "dse/proto/messages.h"
#include "net/inproc.h"

namespace dse {

struct ThreadedRuntime::Fabric {
  explicit Fabric(int n) : inproc(n) {}
  net::InProcFabric inproc;
};

ThreadedRuntime::ThreadedRuntime(ThreadedOptions options)
    : options_(options) {
  DSE_CHECK(options_.num_nodes > 0);
  fabric_ = std::make_unique<Fabric>(options_.num_nodes);
  const bool faulty = options_.fault_plan.enabled();
  if (faulty) {
    DSE_CHECK_MSG(options_.rpc_deadline_ms > 0,
                  "a fault plan requires a finite rpc deadline");
    fault_ = std::make_unique<net::FaultInjector>(options_.fault_plan);
  }
  // Shutdown is the out-of-band teardown path: injecting faults into it
  // turns every test exit into a hang. Encode() writes the type tag first,
  // so one byte identifies it.
  const auto immune = [](const std::vector<std::uint8_t>& payload) {
    return !payload.empty() &&
           payload[0] == static_cast<std::uint8_t>(proto::MsgType::kShutdown);
  };
  for (NodeId i = 0; i < options_.num_nodes; ++i) {
    NodeHost::Options hopts;
    hopts.read_cache = options_.read_cache;
    hopts.pipelined_transfers = options_.pipelined_transfers;
    hopts.batching = options_.batching;
    hopts.prefetch_depth = options_.prefetch_depth;
    hopts.write_combine = options_.write_combine;
    hopts.rpc_deadline_ms = options_.rpc_deadline_ms;
    hopts.rpc_max_attempts = options_.rpc_max_attempts;
    hopts.rpc_backoff_base_ms = options_.rpc_backoff_base_ms;
    hopts.sync_retry = faulty;
    hopts.heartbeat_period_ms =
        options_.heartbeat_period_ms > 0 ? options_.heartbeat_period_ms
        : options_.heartbeat_period_ms == 0 && faulty ? 50
                                                      : 0;
    hopts.heartbeat_timeout_ms = options_.heartbeat_timeout_ms;
    if (faulty && options_.liveness_oracle) {
      net::FaultInjector* fault = fault_.get();
      // The silence is real if the peer is dead, the link is cut — or WE
      // are dead: a killed node's threads keep running but hear nobody, and
      // confirming all of its suspicions makes it park on the quorum check
      // (matching a real network-dead node) instead of locally evicting
      // live peers from its now-divergent view of the membership.
      hopts.silence_confirms = [fault, i](NodeId peer) {
        return fault->NodeDead(i) || fault->NodeDead(peer) ||
               fault->LinkSevered(i, peer);
      };
    }
    if (faulty && !options_.fault_plan.drains.empty()) {
      net::FaultInjector* fault = fault_.get();
      // Planned-drain trigger: the coordinator's heartbeat tick polls this
      // and runs the graceful drain once the schedule fires.
      hopts.drain_requested = [fault](NodeId peer) {
        return fault->NodeDraining(peer);
      };
    }
    hopts.replication = options_.replication;
    hopts.restart_tasks = options_.restart_tasks;
    hopts.min_quorum = options_.min_quorum;
    hopts.rejoin = options_.rejoin;
    hopts.sched = options_.sched;
    hopts.registry = &registry_;
    if (i == 0) {
      hopts.console_sink = [this](std::string line) {
        std::lock_guard<std::mutex> lock(console_mu_);
        console_.push_back(std::move(line));
      };
    }
    net::Endpoint* ep = &fabric_->inproc.endpoint(i);
    if (faulty) {
      faulty_endpoints_.push_back(
          std::make_unique<net::FaultyEndpoint>(ep, fault_.get(), immune));
      ep = faulty_endpoints_.back().get();
    }
    hosts_.push_back(std::make_unique<NodeHost>(ep, options_.num_nodes,
                                                std::move(hopts)));
  }
  for (auto& host : hosts_) host->Start();
}

ThreadedRuntime::~ThreadedRuntime() {
  fabric_->inproc.ShutdownAll();
  // An in-process frame is delivered on its sender's thread, which runs the
  // receiving host's hook: every host's threads stop before any host dies.
  for (auto& host : hosts_) host->Stop();
  hosts_.clear();
}

std::vector<std::uint8_t> ThreadedRuntime::RunMain(
    const std::string& main_name, std::vector<std::uint8_t> arg) {
  {
    std::lock_guard<std::mutex> lock(console_mu_);
    console_.clear();
  }
  Stopwatch watch;
  std::vector<std::uint8_t> result =
      hosts_[0]->RunLocalTask(main_name, std::move(arg));
  for (auto& host : hosts_) host->WaitTasksDrained();
  last_run_seconds_ = watch.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(console_mu_);
    last_console_ = console_;
  }
  return result;
}

const KernelStats& ThreadedRuntime::kernel_stats(NodeId node) const {
  return hosts_[static_cast<size_t>(node)]->core().stats();
}

const gmm::GmmHomeStats& ThreadedRuntime::gmm_stats(NodeId node) const {
  return hosts_[static_cast<size_t>(node)]->core().gmm_stats();
}

size_t ThreadedRuntime::cache_block_count(NodeId node) const {
  return hosts_[static_cast<size_t>(node)]->core().cache_block_count();
}

std::vector<MetricsSnapshot> ThreadedRuntime::ClusterStats() const {
  std::vector<MetricsSnapshot> per_node;
  per_node.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    per_node.push_back(host->StatsSnapshot());
  }
  return per_node;
}

std::vector<proto::PsEntry> ThreadedRuntime::Ps() const {
  std::vector<proto::PsEntry> all;
  for (const auto& host : hosts_) {
    auto entries = host->PsSnapshot();
    all.insert(all.end(), entries.begin(), entries.end());
  }
  return all;
}

MetricsSnapshot ThreadedRuntime::FaultCounters() const {
  return fault_ ? fault_->Counters() : MetricsSnapshot{};
}

bool ThreadedRuntime::NodeKilled(NodeId node) const {
  return fault_ && fault_->NodeDead(node);
}

void ThreadedRuntime::KillNode(NodeId node) {
  DSE_CHECK_MSG(fault_ != nullptr, "KillNode requires an active fault plan");
  fault_->KillNow(node);
}

void ThreadedRuntime::DrainNode(NodeId node) {
  hosts_[0]->AdminDrain(node);
}

bool ThreadedRuntime::NodeDraining(NodeId node) {
  return hosts_[0]->NodeDraining(node);
}

std::map<std::string, RunningStats> ThreadedRuntime::ClusterHistograms()
    const {
  std::map<std::string, RunningStats> merged;
  for (const auto& host : hosts_) {
    for (const auto& [name, s] : host->core().metrics().HistogramSnapshot()) {
      merged[name].Merge(s);
    }
  }
  return merged;
}

}  // namespace dse
