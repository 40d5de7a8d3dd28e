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
    // A call to self runs the kernel right here, on the task thread.
    if (dst == host_->self()) return host_->SendToSelf(env);
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

// The Task handed to application code on this backend: Compute is a no-op
// (real work already took real time).
ClientTask MakeHostTask(NodeHost* host, Gpid gpid,
                        std::vector<std::uint8_t> arg) {
  return ClientTask(std::make_unique<HostRpc>(host), &host->core(), gpid,
                    std::move(arg), [](double /*work_units*/) {});
}


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
      membership_(&core_,
                  recovery::MembershipAgent::Options{
                      .silent =
                          [this](NodeId peer, std::int64_t now_ms) {
                            return Silent(peer, now_ms);
                          },
                      .core_mu = &core_mu_,
                      .on_suspect =
                          [this](NodeId peer) {
                            FailPendingTo(peer,
                                          Unavailable(
                                              "node " + std::to_string(peer) +
                                              " declared dead"));
                          },
                      .on_clear =
                          [this](NodeId peer) {
                            last_heard_ms_[static_cast<size_t>(peer)].store(
                                NowMs(), std::memory_order_relaxed);
                          },
                      .drain_requested = options_.drain_requested,
                  }),
      local_inline_(core_.metrics().counter("rpc.local_inline")),
      last_heard_ms_(static_cast<size_t>(num_nodes)) {
  DSE_CHECK(options_.registry != nullptr);
}

NodeHost::~NodeHost() { Stop(); }

void NodeHost::Stop() {
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
  endpoint_->SetReceiveHook(
      [this](const net::Delivery& d) { return TakeResponse(d); });
  service_ = std::thread([this] {
    ServiceLoop();
    // Nothing will answer a pending call once the service loop is gone;
    // release every blocked task with a terminal status instead of hanging.
    // An in-place call that got past `serving_` registered before this
    // sweep, so it is failed here too.
    serving_.store(false);
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
        if (n == self() || membership_.Suspected(n)) continue;
        last_heard_ms_[static_cast<size_t>(n)].fetch_add(
            excess, std::memory_order_relaxed);
      }
    }
    Perform(membership_.Tick(now));
    for (NodeId n = 0; n < core_.num_nodes(); ++n) {
      if (n == self()) continue;
      // Keep probing a suspected peer that is still a member (we may be
      // quorum-parked on the minority side of a partition): when the
      // partition heals, the probes revoke the suspicion on both sides.
      if (membership_.Suspected(n) &&
          (!core_.replication_on() || !core_.NodeAlive(n))) {
        continue;
      }
      proto::Envelope probe;
      probe.req_id = 0;
      probe.src_node = self();
      probe.epoch = core_.epoch();  // reports our view to the coordinator
      probe.body = proto::Heartbeat{};
      (void)SendEnvelope(n, probe);  // a lost probe is just a silent period
    }
  }
}

bool NodeHost::Silent(NodeId peer, std::int64_t now_ms) {
  const int timeout_ms = options_.heartbeat_timeout_ms > 0
                             ? options_.heartbeat_timeout_ms
                             : 5 * options_.heartbeat_period_ms;
  auto& heard = last_heard_ms_[static_cast<size_t>(peer)];
  if (now_ms - heard.load(std::memory_order_relaxed) <= timeout_ms) {
    return false;
  }
  if (options_.silence_confirms && !options_.silence_confirms(peer)) {
    // The oracle says the peer is neither killed nor severed: the silence
    // is scheduler starvation, not death. Reset its clock — the timeout
    // re-arms and fires for real once the injector actually takes the
    // peer down.
    heard.store(now_ms, std::memory_order_relaxed);
    return false;
  }
  return true;
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
    ClientTask task = MakeHostTask(this, gpid, std::move(arg));
    options_.registry->Get(name)(task);
    result = task.TakeResult();
  }
  FinishLocalTask(gpid, result);
  return result;
}

void NodeHost::FinishLocalTask(Gpid gpid, std::vector<std::uint8_t> result) {
  KernelCore::Actions actions;
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    actions = core_.OnLocalTaskExit(gpid, std::move(result));
    ticket = TicketFor(actions);
  }
  Emit(ticket, std::move(actions));
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
  if (membership_.Suspected(dst)) {
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

Status NodeHost::SendToSelf(proto::Envelope env) {
  // Shutdown stops the service loop, so it must reach the loop itself.
  if (env.type() == proto::MsgType::kShutdown) return SendEnvelope(self(), env);
  std::uint64_t bytes = 0;
  const std::optional<Status> carried = endpoint_->ShapeLoopback([&] {
    std::vector<std::uint8_t> payload = proto::Encode(env);
    bytes = payload.size();
    return payload;
  });
  if (carried.has_value()) {
    // Not a clean loopback (a fault verdict): it travelled encoded.
    if (carried->ok()) {
      core_.CountSent(env.type());
      core_.CountWireSent(bytes);
    }
    return *carried;
  }
  if (!serving_.load()) return Unavailable("node service loop exited");
  core_.CountSent(env.type());
  core_.CountRecv(env.type());
  if (proto::IsClientResponse(env.type())) {
    DeliverResponse(std::move(env));
  } else {
    local_inline_->Add();
    Serve(std::move(env));
  }
  return Status::Ok();
}

std::uint64_t NodeHost::TicketFor(const KernelCore::Actions& actions) {
  if (!actions.console.empty()) return next_ticket_++;
  for (const KernelCore::Outgoing& out : actions.out) {
    if (out.dst != self() || !proto::IsClientResponse(out.env.type())) {
      return next_ticket_++;
    }
  }
  return kUnordered;
}

void NodeHost::Emit(std::uint64_t ticket, KernelCore::Actions actions) {
  if (ticket == kUnordered) {
    Perform(std::move(actions));
    return;
  }
  for (std::uint64_t turn = emit_turn_.load(std::memory_order_acquire);
       turn != ticket; turn = emit_turn_.load(std::memory_order_acquire)) {
    emit_turn_.wait(turn, std::memory_order_acquire);
  }
  std::vector<KernelCore::StartTask> start = std::exchange(actions.start, {});
  Perform(std::move(actions));
  emit_turn_.fetch_add(1, std::memory_order_release);
  emit_turn_.notify_all();
  // Thread creation is slow and orders against nothing: out of turn.
  for (auto& st : start) StartTaskThread(std::move(st));
}

void NodeHost::Perform(KernelCore::Actions actions) {
  for (auto& line : actions.console) {
    if (options_.console_sink) options_.console_sink(std::move(line));
  }
  for (auto& out : actions.out) {
    // A response to self answers a local call: in place, never encoded.
    const Status s =
        out.dst == self() && proto::IsClientResponse(out.env.type())
            ? SendToSelf(std::move(out.env))
            : SendEnvelope(out.dst, out.env);
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
    ClientTask task = MakeHostTask(this, st.gpid, std::move(st.arg));
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
    NoteInbound(*decoded, delivery->payload.size());
    if (!Serve(std::move(*decoded))) return;
  }
}

void NodeHost::NoteInbound(const proto::Envelope& env,
                           std::uint64_t wire_bytes) {
  core_.CountRecv(env.type());
  core_.CountWireRecv(wire_bytes);
  // Any frame proves its sender alive (the detector's clock, lock-free).
  if (env.src_node >= 0 && env.src_node < core_.num_nodes()) {
    last_heard_ms_[static_cast<size_t>(env.src_node)].store(
        NowMs(), std::memory_order_relaxed);
  }
}

bool NodeHost::TakeResponse(const net::Delivery& delivery) {
  // Encode() writes the type tag first: everything but a response is left
  // to the service loop undecoded.
  if (delivery.payload.empty() ||
      !proto::IsClientResponse(
          static_cast<proto::MsgType>(delivery.payload[0]))) {
    return false;
  }
  auto decoded = proto::Decode(delivery.payload);
  if (!decoded.ok()) return false;  // the service loop logs and drops it
  NoteInbound(*decoded, delivery.payload.size());
  // A response only refreshes the sender's epoch stamp and suspicion latch;
  // the agent consumes no response type, so there are no actions to run.
  KernelCore::Actions none;
  (void)membership_.OnFrame(*decoded, &none);
  DeliverResponse(std::move(*decoded));
  return true;
}

bool NodeHost::Serve(proto::Envelope env) {
  // The membership agent revokes suspicions and consumes its own frames.
  if (KernelCore::Actions consumed; membership_.OnFrame(env, &consumed)) {
    Perform(std::move(consumed));
    return true;
  }
  if (proto::IsClientResponse(env.type())) {
    DeliverResponse(std::move(env));
    return true;
  }
  KernelCore::Actions actions;
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    actions = core_.Handle(env);
    ticket = TicketFor(actions);
  }
  const bool shutdown = actions.shutdown;
  if (shutdown) actions = {};  // the node stops: nothing more goes out
  Emit(ticket, std::move(actions));
  return !shutdown;
}

void NodeHost::DeliverResponse(proto::Envelope env) {
  // The cache fill lands before the waiting task can observe the response,
  // and on the thread that received it in the sender's order — see Emit.
  core_.FillCacheFrom(env);
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
    return;
  }
  const std::uint64_t req_id = env.req_id;
  Deliver(*box, RpcArrival{req_id, std::move(env)});
}

}  // namespace dse
