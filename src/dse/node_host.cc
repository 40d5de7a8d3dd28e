#include "dse/node_host.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dse/client.h"

namespace dse {

namespace {

// The caller holds a reference to `box` (taken from the pending table), so
// the mailbox outlives the notify even if its task has already given up.
void Deliver(NodeHost::Mailbox& box, RpcArrival arrival) {
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.arrivals.push_back(std::move(arrival));
  }
  box.cv.notify_one();
}

// RpcTransport over the host's endpoint and pending table; every arrival
// for this task lands in its own mailbox.
class HostRpc final : public RpcTransport {
 public:
  explicit HostRpc(NodeHost* host) : host_(host) {}

  std::uint64_t NextReqId() override { return host_->NextReqId(); }
  void Register(std::uint64_t req_id, NodeId dst) override {
    host_->RegisterCall(req_id, mailbox_, dst);
  }
  void Unregister(std::uint64_t req_id) override {
    host_->UnregisterCall(req_id);
  }
  Status Send(NodeId dst, const proto::Envelope& env) override {
    return host_->SendEnvelope(dst, env);
  }
  std::int64_t NowNs() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::optional<RpcArrival> Await(std::int64_t deadline_ns) override {
    NodeHost::Mailbox& box = *mailbox_;
    std::unique_lock<std::mutex> lock(box.mu);
    const auto ready = [&] { return !box.arrivals.empty(); };
    if (deadline_ns == kNoDeadline) {
      box.cv.wait(lock, ready);
    } else if (!box.cv.wait_until(
                   lock,
                   std::chrono::steady_clock::time_point(
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::nanoseconds(deadline_ns))),
                   ready)) {
      return std::nullopt;
    }
    RpcArrival arrival = std::move(box.arrivals.front());
    box.arrivals.pop_front();
    return arrival;
  }
  void Pause(int ms) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  void OnBounce(NodeId responder, const proto::RetryResp& rr) override {
    host_->HandleRetrySignal(responder, rr);
  }

 private:
  NodeHost* host_;
  std::shared_ptr<NodeHost::Mailbox> mailbox_ =
      std::make_shared<NodeHost::Mailbox>();
};

// Task implementation handed to application code.
class HostTask final : public Task {
 public:
  HostTask(NodeHost* host, Gpid gpid, std::vector<std::uint8_t> arg)
      : host_(host),
        gpid_(gpid),
        arg_(std::move(arg)),
        rpc_(host),
        client_(&rpc_, &host->core()) {}

  NodeId node() const override { return host_->self(); }
  Gpid gpid() const override { return gpid_; }
  int num_nodes() const override { return host_->core().num_nodes(); }
  const std::vector<std::uint8_t>& arg() const override { return arg_; }
  void SetResult(std::vector<std::uint8_t> result) override {
    result_ = std::move(result);
  }
  std::vector<std::uint8_t> TakeResult() { return std::move(result_); }

  Result<gmm::GlobalAddr> AllocStriped(std::uint64_t size,
                                       std::uint8_t block_log2) override {
    return client_.AllocStriped(size, block_log2);
  }
  Result<gmm::GlobalAddr> AllocOnNode(std::uint64_t size,
                                      NodeId home) override {
    return client_.AllocOnNode(size, home);
  }
  Status Free(gmm::GlobalAddr addr) override { return client_.Free(addr); }
  Status Read(gmm::GlobalAddr addr, void* out, std::uint64_t len) override {
    return client_.Read(addr, out, len);
  }
  Status Write(gmm::GlobalAddr addr, const void* src,
               std::uint64_t len) override {
    return client_.Write(addr, src, len);
  }
  Result<std::int64_t> AtomicFetchAdd(gmm::GlobalAddr addr,
                                      std::int64_t delta) override {
    return client_.AtomicFetchAdd(addr, delta);
  }
  Result<std::int64_t> AtomicCompareExchange(gmm::GlobalAddr addr,
                                             std::int64_t expected,
                                             std::int64_t desired) override {
    return client_.AtomicCompareExchange(addr, expected, desired);
  }
  Status Lock(std::uint64_t lock_id) override { return client_.Lock(lock_id); }
  Status Unlock(std::uint64_t lock_id) override {
    return client_.Unlock(lock_id);
  }
  Status Barrier(std::uint64_t barrier_id, int parties) override {
    return client_.Barrier(barrier_id, parties);
  }
  Result<Gpid> Spawn(const std::string& task_name,
                     std::vector<std::uint8_t> arg,
                     NodeId node_hint) override {
    return client_.Spawn(task_name, std::move(arg), node_hint);
  }
  Result<std::vector<std::uint8_t>> Join(Gpid gpid) override {
    return client_.Join(gpid);
  }
  void Compute(double work_units) override {
    (void)work_units;  // real work already took real time on this backend
  }
  void Print(const std::string& text) override {
    (void)client_.Print(gpid_, text);
  }
  Result<std::vector<proto::PsEntry>> ClusterPs() override {
    return client_.ClusterPs();
  }
  Result<std::vector<MetricsSnapshot>> ClusterStats() override {
    return client_.ClusterStats();
  }
  Status PublishName(const std::string& name, std::uint64_t value) override {
    return client_.PublishName(name, value);
  }
  Result<std::uint64_t> LookupName(const std::string& name) override {
    return client_.LookupName(name);
  }
  Result<std::uint64_t> SubmitJob(std::uint32_t tenant,
                                  const std::string& task_name,
                                  std::vector<std::uint8_t> arg,
                                  std::uint32_t gang,
                                  NodeId locality_hint) override {
    return client_.SubmitJob(tenant, task_name, std::move(arg), gang,
                             locality_hint);
  }
  Result<std::map<std::string, std::uint64_t>> SchedStat() override {
    return client_.SchedStat();
  }

 private:
  NodeHost* host_;
  Gpid gpid_;
  std::vector<std::uint8_t> arg_;
  std::vector<std::uint8_t> result_;
  HostRpc rpc_;
  TaskClient client_;
};

}  // namespace

namespace {

KernelOptions MakeKernelOptions(const NodeHost::Options& options,
                                TaskRegistry* registry,
                                net::Endpoint* endpoint) {
  KernelOptions kopts;
  kopts.read_cache = options.read_cache;
  kopts.pipelined_transfers = options.pipelined_transfers;
  kopts.batching = options.batching;
  kopts.prefetch_depth = options.prefetch_depth;
  kopts.write_combine = options.write_combine;
  kopts.rpc_deadline_ms = options.rpc_deadline_ms;
  kopts.rpc_max_attempts = options.rpc_max_attempts;
  kopts.rpc_backoff_base_ms = options.rpc_backoff_base_ms;
  kopts.rpc_sync_retry = options.sync_retry;
  kopts.replication = options.replication;
  kopts.restart_tasks = options.restart_tasks;
  kopts.min_quorum = options.min_quorum;
  kopts.rejoin = options.rejoin;
  kopts.has_task = [registry](const std::string& name) {
    return registry->Has(name);
  };
  kopts.task_idempotent = [registry](const std::string& name) {
    return registry->IsIdempotent(name);
  };
  kopts.sched = options.sched;
  // Scheduler latency accounting in real microseconds (monotonic).
  kopts.now_us = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  // Endpoint-level byte counts (serialized frames at the fabric boundary)
  // ride along in stats snapshots as a cross-check of the kernel's own
  // net.* accounting.
  kopts.augment_stats = [endpoint](MetricsSnapshot* snap) {
    const net::WireCounts w = endpoint->wire_counts();
    if (w.msgs_sent != 0) (*snap)["wire.msgs_sent"] = w.msgs_sent;
    if (w.bytes_sent != 0) (*snap)["wire.bytes_sent"] = w.bytes_sent;
    if (w.msgs_recv != 0) (*snap)["wire.msgs_recv"] = w.msgs_recv;
    if (w.bytes_recv != 0) (*snap)["wire.bytes_recv"] = w.bytes_recv;
  };
  return kopts;
}

}  // namespace

NodeHost::NodeHost(net::Endpoint* endpoint, int num_nodes, Options options)
    : endpoint_(endpoint),
      options_(std::move(options)),
      core_(endpoint->self(), num_nodes,
            MakeKernelOptions(options_, options_.registry, endpoint)),
      last_heard_ms_(static_cast<size_t>(num_nodes)),
      peer_dead_(static_cast<size_t>(num_nodes)),
      drain_initiated_(static_cast<size_t>(num_nodes)) {
  DSE_CHECK(options_.registry != nullptr);
  nodes_dead_ = core_.metrics().counter("node.dead");
}

NodeHost::~NodeHost() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  endpoint_->Shutdown();
  if (service_.joinable()) service_.join();
  WaitTasksDrained();
}

std::int64_t NodeHost::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NodeHost::Start() {
  DSE_CHECK_MSG(!service_.joinable(), "NodeHost started twice");
  const std::int64_t now = NowMs();
  for (auto& stamp : last_heard_ms_) {
    stamp.store(now, std::memory_order_relaxed);
  }
  service_ = std::thread([this] {
    ServiceLoop();
    // Nothing will answer a pending call once the service loop is gone;
    // release every blocked task with a terminal status instead of hanging.
    FailAllPending(Unavailable("node service loop exited"));
    {
      std::lock_guard<std::mutex> lock(service_exit_mu_);
      service_exited_ = true;
    }
    service_exit_cv_.notify_all();
  });
  if (options_.heartbeat_period_ms > 0 && core_.num_nodes() > 1) {
    heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  }
}

void NodeHost::HeartbeatLoop() {
  const int period_ms = options_.heartbeat_period_ms;
  const int timeout_ms = options_.heartbeat_timeout_ms > 0
                             ? options_.heartbeat_timeout_ms
                             : 5 * period_ms;
  std::int64_t last_tick = NowMs();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                      [&] { return hb_stop_; });
      if (hb_stop_) return;
    }
    const std::int64_t now = NowMs();
    // Pause compensation: time this monitor itself spent descheduled
    // beyond its period (host overload, a stopped/paused process, a
    // debugger) is indistinguishable from peer silence — our own pause
    // also kept us from *hearing* heartbeats that may well have been
    // sent. Credit the excess back to every unsuspected peer so only
    // time the monitor was demonstrably running counts toward a timeout.
    // A genuinely dead peer is still detected: with the monitor ticking
    // normally the excess is zero and the deadline expires as usual;
    // under sustained overload detection stretches proportionally
    // instead of mass-declaring the whole cluster dead on wake-up.
    const std::int64_t excess = now - last_tick - period_ms;
    last_tick = now;
    if (excess > 0) {
      for (NodeId n = 0; n < core_.num_nodes(); ++n) {
        const auto i = static_cast<size_t>(n);
        if (n == self() || peer_dead_[i].load(std::memory_order_relaxed)) {
          continue;
        }
        last_heard_ms_[i].fetch_add(excess, std::memory_order_relaxed);
      }
    }
    // Two passes: latch every peer that timed out this tick *before* acting
    // on any of them. A partition severs several links at once; evicting
    // the first silent peer while the others still look reachable would
    // let a minority side pass the quorum check it should fail.
    std::vector<NodeId> newly_silent;
    for (NodeId n = 0; n < core_.num_nodes(); ++n) {
      const auto i = static_cast<size_t>(n);
      if (n == self() ||
          peer_dead_[i].load(std::memory_order_relaxed)) {
        continue;
      }
      if (now - last_heard_ms_[i].load(std::memory_order_relaxed) >
          timeout_ms) {
        if (options_.silence_confirms && !options_.silence_confirms(n)) {
          // The oracle says the peer is neither killed nor severed: the
          // silence is scheduler starvation, not death. Reset its clock —
          // the timeout re-arms and fires for real once the injector
          // actually takes the peer down.
          last_heard_ms_[i].store(now, std::memory_order_relaxed);
          continue;
        }
        LatchPeerDead(n, "heartbeat timeout");
        newly_silent.push_back(n);
      }
    }
    for (const NodeId n : newly_silent) {
      EvictPeer(n, 0, "heartbeat timeout");
    }
    for (NodeId n = 0; n < core_.num_nodes(); ++n) {
      if (n == self()) continue;
      if (peer_dead_[static_cast<size_t>(n)].load(
              std::memory_order_relaxed)) {
        // Keep probing a suspected peer that is still a member (we may be
        // quorum-parked on the minority side of a partition): when the
        // partition heals, the probes revoke the suspicion on both sides.
        if (!core_.replication_on() || !core_.NodeAlive(n)) continue;
      }
      proto::Envelope probe;
      probe.req_id = 0;
      probe.src_node = self();
      probe.body = proto::Heartbeat{};
      (void)SendEnvelope(n, probe);  // a lost probe is just a silent period
    }
    // Replication: the coordinator re-announces evictions every tick, so a
    // survivor whose EvictReq frame was lost converges without waiting for
    // its own heartbeat timeout. With rejoin on, the eviction is announced
    // to the evicted node itself too — a restarted/healed node learns it
    // was evicted and initiates NodeJoinReq from that signal.
    if (core_.replication_on() && core_.CoordinatorView() == self()) {
      for (NodeId d = 0; d < core_.num_nodes(); ++d) {
        if (core_.NodeAlive(d)) continue;
        for (NodeId n = 0; n < core_.num_nodes(); ++n) {
          if (n == self()) continue;
          const bool alive = core_.NodeAlive(n);
          if (!alive && !(options_.rejoin && n == d)) continue;
          proto::Envelope ev;
          ev.req_id = 0;
          ev.src_node = self();
          ev.epoch = core_.epoch();
          ev.body = proto::EvictReq{d, core_.epoch()};
          (void)SendEnvelope(n, ev);
        }
      }
    }
    // Planned drain duties (coordinator): fire drain triggers from the
    // harness oracle, and once a draining peer reports cutover-ready (and
    // the scheduler here, if any, has no member left on it), evict it under
    // a bumped epoch — the lossless, planned eviction. The evicted node
    // rejoins via the re-announce path above.
    if (core_.replication_on() && core_.CoordinatorView() == self()) {
      for (NodeId d = 0; d < core_.num_nodes(); ++d) {
        if (d == self() || !core_.NodeAlive(d)) continue;
        bool draining = false;
        bool ready = false;
        {
          std::lock_guard<std::mutex> lock(core_mu_);
          draining = core_.NodeDraining(d);
          ready = core_.DrainCutoverReady(d);
        }
        if (ready) {
          EvictPeer(d, core_.epoch() + 1, "drain cutover");
        } else if (!draining && options_.drain_requested &&
                   options_.drain_requested(d) &&
                   !drain_initiated_[static_cast<size_t>(d)].exchange(
                       true, std::memory_order_relaxed)) {
          AdminDrain(d);
        }
      }
    }
    // Self-healing: retransmission tick for in-flight state transfers.
    if (core_.replication_on()) {
      KernelCore::Actions actions;
      {
        std::lock_guard<std::mutex> lock(core_mu_);
        actions = core_.TickTransfers();
      }
      Perform(std::move(actions));
    }
  }
}

void NodeHost::AdminDrain(NodeId node) {
  if (!core_.replication_on()) return;
  if (node < 0 || node >= core_.num_nodes() || !core_.NodeAlive(node)) return;
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = self();
  env.epoch = core_.epoch();
  env.body = proto::DrainReq{node, core_.epoch()};
  // Apply locally first (marks the node draining; the scheduler here stops
  // placing on it), then broadcast so every member — the target included —
  // converges on the same view.
  KernelCore::Actions actions;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    actions = core_.Handle(env);
  }
  Perform(std::move(actions));
  for (NodeId n = 0; n < core_.num_nodes(); ++n) {
    if (n == self() || !core_.NodeAlive(n)) continue;
    (void)SendEnvelope(n, env);
  }
}

bool NodeHost::PeerDead(NodeId node) const {
  if (node < 0 || node >= core_.num_nodes()) return false;
  return peer_dead_[static_cast<size_t>(node)].load(
      std::memory_order_relaxed);
}

void NodeHost::LatchPeerDead(NodeId node, const char* why) {
  if (node < 0 || node >= core_.num_nodes() || node == self()) return;
  if (!peer_dead_[static_cast<size_t>(node)].exchange(
          true, std::memory_order_relaxed)) {
    nodes_dead_->Add();
    DSE_LOG(kWarn) << "node " << self() << ": declaring node " << node
                   << " dead (" << why << ")";
    FailPendingTo(node, Unavailable("node " + std::to_string(node) +
                                    " declared dead (" + why + ")"));
  }
}

void NodeHost::EvictPeer(NodeId node, std::uint32_t epoch, const char* why) {
  if (node < 0 || node >= core_.num_nodes() || node == self()) return;
  LatchPeerDead(node, why);
  if (!core_.replication_on() || !core_.NodeAlive(node)) return;
  // Quorum guard: a locally detected eviction (no epoch from a peer backing
  // it) needs a reachable strict majority (or --min-quorum), counting every
  // current member we do not suspect, ourselves included. Below the bar we
  // park: the suspicion stays latched, calls fail over and retry, and no
  // membership change happens until the partition heals or a quorum-held
  // eviction reaches us by gossip.
  if (epoch == 0) {
    int reachable = 0;
    for (NodeId n = 0; n < core_.num_nodes(); ++n) {
      if (!core_.NodeAlive(n)) continue;
      if (n != self() && PeerDead(n)) continue;
      ++reachable;
    }
    if (reachable < core_.QuorumRequired()) {
      if (!parked_.exchange(true, std::memory_order_relaxed)) {
        core_.NoteQuorumPark();
        DSE_LOG(kWarn) << "node " << self() << ": quorum park — only "
                       << reachable << " member(s) reachable, need "
                       << core_.QuorumRequired();
      }
      return;
    }
    parked_.store(false, std::memory_order_relaxed);
  }
  const std::uint32_t new_epoch = epoch != 0 ? epoch : core_.epoch() + 1;
  KernelCore::Actions actions;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    actions = core_.ApplyEviction(node, new_epoch);
  }
  Perform(std::move(actions));
  // The coordinator announces the eviction; everyone else has applied it
  // locally (own detection or a received EvictReq) and stays quiet.
  if (core_.CoordinatorView() == self()) {
    for (NodeId n = 0; n < core_.num_nodes(); ++n) {
      if (n == self() || !core_.NodeAlive(n)) continue;
      proto::Envelope ev;
      ev.req_id = 0;
      ev.src_node = self();
      ev.epoch = core_.epoch();
      ev.body = proto::EvictReq{node, new_epoch};
      (void)SendEnvelope(n, ev);
    }
  }
}

void NodeHost::HandleRetrySignal(NodeId responder,
                                 const proto::RetryResp& rr) {
  const std::uint32_t local = core_.epoch();
  if (rr.epoch > local && rr.evicted >= 0) {
    // The responder is ahead: adopt its eviction without waiting for our
    // own heartbeat timeout or the coordinator's broadcast.
    EvictPeer(rr.evicted, rr.epoch, "epoch gossip");
  } else if (rr.epoch < local) {
    // The responder lags (it missed the EvictReq): push-repair it.
    proto::Envelope ev;
    ev.req_id = 0;
    ev.src_node = self();
    ev.epoch = local;
    ev.body = proto::EvictReq{core_.LastEvicted(), local};
    (void)SendEnvelope(responder, ev);
  }
}

std::uint64_t NodeHost::NextReqId() {
  return next_req_id_.fetch_add(1, std::memory_order_relaxed);
}

void NodeHost::RegisterCall(std::uint64_t req_id,
                            const std::shared_ptr<Mailbox>& box, NodeId dst) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.insert_or_assign(req_id, Pending{box, dst});
}

void NodeHost::UnregisterCall(std::uint64_t req_id) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.erase(req_id);
}

void NodeHost::FailAllPending(const Status& error) {
  std::unordered_map<std::uint64_t, Pending> victims;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    victims.swap(pending_);
  }
  for (auto& [id, p] : victims) Deliver(*p.box, RpcArrival{id, error});
}

void NodeHost::FailPendingTo(NodeId dst, const Status& error) {
  std::vector<std::pair<std::uint64_t, std::shared_ptr<Mailbox>>> victims;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.dst == dst) {
        victims.emplace_back(it->first, std::move(it->second.box));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [id, box] : victims) Deliver(*box, RpcArrival{id, error});
}

std::vector<std::uint8_t> NodeHost::RunLocalTask(
    const std::string& name, std::vector<std::uint8_t> arg) {
  DSE_CHECK_MSG(options_.registry->Has(name), "task not registered");
  Gpid gpid;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    gpid = core_.RegisterLocalTask(name);
  }
  std::vector<std::uint8_t> result;
  {
    HostTask task(this, gpid, std::move(arg));
    options_.registry->Get(name)(task);
    result = task.TakeResult();
  }
  FinishLocalTask(gpid, result);
  return result;
}

void NodeHost::FinishLocalTask(Gpid gpid, std::vector<std::uint8_t> result) {
  KernelCore::Actions actions;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    actions = core_.OnLocalTaskExit(gpid, std::move(result));
  }
  Perform(std::move(actions));
}

void NodeHost::WaitTasksDrained() {
  std::unique_lock<std::mutex> lock(tasks_mu_);
  tasks_cv_.wait(lock, [&] { return live_tasks_ == 0; });
  // Every finished thread has let go of tasks_mu_ for good; joining only
  // waits out its exit.
  for (auto& t : finished_) t.join();
  finished_.clear();
}

void NodeHost::WaitServiceExit() {
  std::unique_lock<std::mutex> lock(service_exit_mu_);
  service_exit_cv_.wait(lock, [&] { return service_exited_; });
}

void NodeHost::BroadcastShutdown() {
  for (NodeId n = 0; n < core_.num_nodes(); ++n) {
    proto::Envelope env;
    env.req_id = 0;
    env.src_node = self();
    env.body = proto::Shutdown{};
    const Status s = SendEnvelope(n, env);
    if (!s.ok()) {
      DSE_LOG(kWarn) << "shutdown broadcast to node " << n
                     << " failed: " << s.ToString();
    }
  }
}

Status NodeHost::SendEnvelope(NodeId dst, const proto::Envelope& env) {
  // Fail fast instead of queueing onto a corpse — except for the control
  // and recovery frames that have to flow *toward* a suspected or evicted
  // peer for the cluster to heal: shutdown teardown, liveness probes, the
  // rejoin-triggering re-announce, the join protocol and state transfers.
  if (PeerDead(dst)) {
    switch (env.type()) {
      case proto::MsgType::kShutdown:
      case proto::MsgType::kHeartbeat:
      case proto::MsgType::kEvictReq:
      case proto::MsgType::kNodeJoinReq:
      case proto::MsgType::kNodeJoinResp:
      case proto::MsgType::kStateChunkReq:
      case proto::MsgType::kStateChunkResp:
      case proto::MsgType::kDrainReq:
      case proto::MsgType::kDrainResp:
        break;
      default:
        return Unavailable("node " + std::to_string(dst) + " is dead");
    }
  }
  std::vector<std::uint8_t> payload = proto::Encode(env);
  const std::uint64_t bytes = payload.size();
  const Status s = endpoint_->Send(dst, std::move(payload));
  if (s.ok()) {
    core_.CountSent(env.type());
    core_.CountWireSent(bytes);
  }
  return s;
}

void NodeHost::Perform(KernelCore::Actions actions) {
  for (auto& line : actions.console) {
    if (options_.console_sink) options_.console_sink(std::move(line));
  }
  for (auto& out : actions.out) {
    const Status s = SendEnvelope(out.dst, out.env);
    if (!s.ok()) {
      DSE_LOG(kWarn) << "node " << self() << " send to " << out.dst
                     << " failed: " << s.ToString();
    }
  }
  for (auto& st : actions.start) {
    StartTaskThread(std::move(st));
  }
}

void NodeHost::StartTaskThread(KernelCore::StartTask st) {
  std::vector<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    reap.swap(finished_);
    ++live_tasks_;
    // The thread cannot reach its epilogue (which takes tasks_mu_) before
    // its handle is in place.
    const auto handle = running_.emplace(running_.end());
    *handle = std::thread([this, handle, st = std::move(st)]() mutable {
      RunTask(std::move(st));
      std::lock_guard<std::mutex> lock(tasks_mu_);
      finished_.push_back(std::move(*handle));
      running_.erase(handle);
      --live_tasks_;
      tasks_cv_.notify_all();
    });
  }
  for (auto& t : reap) t.join();
}

void NodeHost::RunTask(KernelCore::StartTask st) {
  std::vector<std::uint8_t> result;
  {
    HostTask task(this, st.gpid, std::move(st.arg));
    // Spawn validation runs before a StartTask is emitted, so a missing
    // entry here means the registry changed underneath us; degrade to an
    // empty result instead of killing the node.
    if (TaskFn fn = options_.registry->TryGet(st.task_name)) {
      fn(task);
    } else {
      DSE_LOG(kWarn) << "node " << self() << ": task '" << st.task_name
                     << "' vanished from the registry; finishing empty";
    }
    result = task.TakeResult();
  }
  // The task (and its client, whose destructor flushes any combined
  // writes) is gone before the result becomes joinable: a joiner must
  // never observe the result ahead of the task's last writes.
  FinishLocalTask(st.gpid, std::move(result));
}

void NodeHost::ServiceLoop() {
  while (auto delivery = endpoint_->Recv()) {
    auto decoded = proto::Decode(delivery->payload);
    if (!decoded.ok()) {
      DSE_LOG(kWarn) << "node " << self() << ": dropping malformed message: "
                     << decoded.status().ToString();
      continue;
    }
    proto::Envelope env = std::move(*decoded);
    core_.CountRecv(env.type());
    core_.CountWireRecv(delivery->payload.size());

    // Any frame proves its sender alive. With replication, it also revokes
    // a suspicion of a peer that is still a member — a quorum-parked side
    // of a partition resumes this way when the partition heals (a truly
    // evicted node stays latched; it must rejoin through the coordinator).
    if (env.src_node >= 0 && env.src_node < core_.num_nodes()) {
      const auto si = static_cast<size_t>(env.src_node);
      last_heard_ms_[si].store(NowMs(), std::memory_order_relaxed);
      if (core_.replication_on() && env.src_node != self() &&
          peer_dead_[si].load(std::memory_order_relaxed) &&
          core_.NodeAlive(env.src_node)) {
        peer_dead_[si].store(false, std::memory_order_relaxed);
        parked_.store(false, std::memory_order_relaxed);
        DSE_LOG(kWarn) << "node " << self() << ": suspicion of node "
                       << env.src_node << " revoked (frame received)";
      }
    }
    if (env.type() == proto::MsgType::kHeartbeat) continue;

    if (env.type() == proto::MsgType::kEvictReq) {
      const auto& e = std::get<proto::EvictReq>(env.body);
      if (e.node == self() && core_.replication_on() && options_.rejoin) {
        // The cluster evicted *us* (we were partitioned away or presumed
        // dead): wipe the kernel state the cluster has moved past and ask
        // the announcer (the coordinator) for re-admission. Guarded so the
        // per-tick re-announce only re-sends the join request.
        if (!joining_.exchange(true, std::memory_order_relaxed)) {
          std::lock_guard<std::mutex> lock(core_mu_);
          core_.ResetForRejoin();
        }
        proto::Envelope jr;
        jr.req_id = 0;
        jr.src_node = self();
        jr.body = proto::NodeJoinReq{self()};
        (void)SendEnvelope(env.src_node, jr);
        continue;
      }
      // Handled at the host layer so the peer-dead latch, pending-call
      // sweep and coordinator re-announce all happen with the membership
      // change. (EvictPeer funnels into core().ApplyEviction.)
      EvictPeer(e.node, e.epoch, "evicted by coordinator");
      continue;
    }

    if (const auto* jr = std::get_if<proto::NodeJoinResp>(&env.body)) {
      // Host-level view of an admission (the kernel handles the membership
      // change below): clear the liveness latches the rejoin obsoletes.
      if (jr->node == self()) {
        joining_.store(false, std::memory_order_relaxed);
        parked_.store(false, std::memory_order_relaxed);
        const std::int64_t now = NowMs();
        for (size_t i = 0; i < jr->alive.size() &&
                           i < peer_dead_.size(); ++i) {
          if (jr->alive[i] != 0) {
            peer_dead_[i].store(false, std::memory_order_relaxed);
            last_heard_ms_[i].store(now, std::memory_order_relaxed);
          }
        }
      } else if (jr->node >= 0 && jr->node < core_.num_nodes()) {
        peer_dead_[static_cast<size_t>(jr->node)].store(
            false, std::memory_order_relaxed);
        last_heard_ms_[static_cast<size_t>(jr->node)].store(
            NowMs(), std::memory_order_relaxed);
      }
    }

    if (proto::IsClientResponse(env.type())) {
      // Cache fills happen on this ordered path before the waiting task can
      // observe the response — see kernel_core.h. A response stamped with an
      // older membership epoch (served before a failover, or replayed from a
      // shadow ledger after promotion) still answers the call, but its block
      // is not cached: the promoted home's copyset does not track that copy,
      // so no future write could ever invalidate it.
      if (env.epoch == core_.epoch()) {
        if (auto* rr = std::get_if<proto::ReadResp>(&env.body);
            rr != nullptr && rr->block_fetch) {
          core_.CacheInsert(rr->addr, rr->data);
        } else if (auto* br = std::get_if<proto::BatchResp>(&env.body)) {
          for (const proto::BatchItemResp& item : br->items) {
            if (item.block_fetch) core_.CacheInsert(item.addr, item.data);
          }
        }
      }
      std::shared_ptr<Mailbox> box;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        const auto it = pending_.find(env.req_id);
        if (it != pending_.end()) {
          box = std::move(it->second.box);
          pending_.erase(it);
        }
      }
      if (box == nullptr) {
        // Expected under faults: the duplicate of a dup'd response, or an
        // answer arriving after its call was failed (timeout/dead peer).
        core_.metrics().counter("rpc.orphan_resp")->Add();
        DSE_LOG(kDebug) << "node " << self() << ": orphan response req_id "
                        << env.req_id;
        continue;
      }
      const std::uint64_t req_id = env.req_id;
      Deliver(*box, RpcArrival{req_id, std::move(env)});
      continue;
    }

    KernelCore::Actions actions;
    {
      std::lock_guard<std::mutex> lock(core_mu_);
      actions = core_.Handle(env);
    }
    if (actions.shutdown) return;
    Perform(std::move(actions));
  }
}

}  // namespace dse
