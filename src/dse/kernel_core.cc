#include "dse/kernel_core.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "dse/recovery/replica.h"

namespace dse {
namespace {

// Appends GmmHome replies to the action list.
void Emit(KernelCore::Actions* actions, gmm::GmmHome::Replies replies) {
  for (auto& r : replies) {
    actions->out.push_back(KernelCore::Outgoing{r.dst, std::move(r.env)});
  }
}

// Mutating request types whose re-execution on a retried (duplicated) frame
// would corrupt state: these go through the at-most-once cache. Pure reads
// and queries are idempotent and skip it. A BatchReq is tracked only when it
// carries at least one write item.
bool RequestNeedsDedupe(const proto::Envelope& env) {
  switch (env.type()) {
    case proto::MsgType::kWriteReq:
    case proto::MsgType::kAtomicReq:
    case proto::MsgType::kAllocReq:
    case proto::MsgType::kFreeReq:
    case proto::MsgType::kLockReq:
    case proto::MsgType::kBarrierEnter:
    case proto::MsgType::kSpawnReq:
    case proto::MsgType::kJoinReq:
    case proto::MsgType::kNamePublish:
    case proto::MsgType::kJobSubmitReq:
      return true;
    case proto::MsgType::kBatchReq: {
      const auto& b = std::get<proto::BatchReq>(env.body);
      for (const auto& item : b.items) {
        if (item.op == proto::BatchOp::kWrite) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

// Request types rejected with RetryResp when their envelope epoch does not
// match the receiver's cluster epoch (replication on only). One-way frames
// (UnlockReq, InvalidateAck, ConsoleOut, Heartbeat) and the recovery
// protocol itself are exempt: they carry no retry path, so fencing them
// would lose them outright.
bool EpochFenced(proto::MsgType type) {
  switch (type) {
    case proto::MsgType::kReadReq:
    case proto::MsgType::kWriteReq:
    case proto::MsgType::kAtomicReq:
    case proto::MsgType::kAllocReq:
    case proto::MsgType::kFreeReq:
    case proto::MsgType::kLockReq:
    case proto::MsgType::kBarrierEnter:
    case proto::MsgType::kBatchReq:
    case proto::MsgType::kSpawnReq:
    case proto::MsgType::kJoinReq:
    case proto::MsgType::kNamePublish:
    case proto::MsgType::kNameLookup:
    case proto::MsgType::kJobSubmitReq:
      return true;
    default:
      return false;
  }
}

}  // namespace

KernelCore::KernelCore(NodeId self, int num_nodes, KernelOptions options)
    : self_(self),
      num_nodes_(num_nodes),
      options_(std::move(options)),
      home_(self, num_nodes, options_.read_cache),
      processes_(self),
      ssi_(self, &processes_, [this] { return StatsSnapshot(); }),
      home_map_(num_nodes) {
  for (std::uint8_t t = 1; t <= proto::kMaxMsgType; ++t) {
    const std::string name(proto::MsgTypeName(static_cast<proto::MsgType>(t)));
    msg_sent_[t] = metrics_.counter("msg.sent." + name);
    msg_recv_[t] = metrics_.counter("msg.recv." + name);
  }
  net_msgs_sent_ = metrics_.counter("net.msgs_sent");
  net_bytes_sent_ = metrics_.counter("net.bytes_sent");
  net_msgs_recv_ = metrics_.counter("net.msgs_recv");
  net_bytes_recv_ = metrics_.counter("net.bytes_recv");
  sent_bytes_hist_ = metrics_.histogram("net.sent_bytes");
  dedupe_replays_ = metrics_.counter("rpc.dedupe.replays");
  dedupe_drops_ = metrics_.counter("rpc.dedupe.drops");
  evictions_ = metrics_.counter("recovery.evictions");
  epoch_bounces_ = metrics_.counter("recovery.epoch_bounces");
  quorum_parks_ = metrics_.counter("recovery.quorum_parks");
  replica_ = std::make_unique<recovery::Replica>(this);
  if (options_.sched.enabled && self_ == 0) {
    sched_ = std::make_unique<sched::Scheduler>(
        num_nodes_, options_.sched, &metrics_, options_.now_us,
        options_.task_idempotent);
  }
}

KernelCore::~KernelCore() = default;

std::uint32_t KernelCore::epoch() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.epoch();
}

NodeId KernelCore::RouteOf(NodeId natural) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.Route(natural);
}

bool KernelCore::NodeAlive(NodeId node) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.IsAlive(node);
}

NodeId KernelCore::CoordinatorView() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.Coordinator();
}

NodeId KernelCore::LastEvicted() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.last_evicted();
}

NodeId KernelCore::LastAdmitted() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.last_admitted();
}

std::vector<std::uint8_t> KernelCore::AliveBitmap() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.AliveBitmap();
}

KernelCore::Actions KernelCore::Handle(const proto::Envelope& env) {
  DSE_CHECK_MSG(!proto::IsClientResponse(env.type()),
                "client response leaked into KernelCore::Handle");
  ++stats_.handled;

  // Recovery protocol frames bypass dispatch entirely. With replication off
  // a stray one (mixed-configuration cluster) is dropped rather than fed to
  // Dispatch's unhandled-type check. EvictReq never reaches the core: the
  // runtime's membership agent consumes it (recovery/membership.h).
  if (recovery::Replica::Handles(env.type())) {
    Actions actions;
    if (replication_on()) {
      replica_->Handle(env, &actions);
      HarvestResponses(&actions);
    }
    return actions;
  }

  // Bounces a request with our membership view: the sender repairs its map
  // and retries (same req_id).
  const auto bounce = [&] {
    Actions actions;
    if (env.req_id != 0) {
      actions.out.push_back(Outgoing{env.src_node, MakeRetryResp(env)});
    }
    return actions;
  };
  // Epoch fence: under replication every routed request carries the
  // membership epoch its sender resolved against. A mismatch means sender
  // and receiver disagree about who serves what.
  if (replication_on() && EpochFenced(env.type()) &&
      env.epoch != epoch()) {
    epoch_bounces_->Add();
    return bounce();
  }

  // Serving check before the dedupe guard: a GMM request for a home this
  // node does not (or does not yet — rejoin handoff in flight) serve must
  // bounce *without* entering the at-most-once cache, or the eventual retry
  // against the installed home would be dropped as an in-flight duplicate.
  const NodeId natural = NaturalHomeOf(env);
  if (replication_on() && natural >= 0 && ServingHome(natural) == nullptr) {
    return bounce();
  }

  // At-most-once guard: a retried mutating request (same requester and
  // req_id) must not re-execute. Replay the remembered response if the
  // original completed; drop the duplicate if it is still in flight (its
  // deferred response will answer both).
  const bool tracked = env.req_id != 0 && RequestNeedsDedupe(env);
  const DedupeKey key{env.src_node, env.req_id};
  if (tracked) {
    if (const proto::Envelope* done = completed_.Find(key)) {
      dedupe_replays_->Add();
      Actions replay;
      replay.out.push_back(Outgoing{env.src_node, *done});
      return replay;
    }
    if (in_progress_.count(key) > 0) {
      dedupe_drops_->Add();
      Actions actions;
      // The reply this duplicate is chasing may be gated on an unacked
      // replication record (the ack or the record itself was lost): the
      // retry doubles as the retransmission trigger.
      if (replication_on()) replica_->ResendGatedFor(key, &actions);
      return actions;
    }
    in_progress_.insert(key);
  }

  Actions actions = Dispatch(env, natural);
  if (replication_on()) {
    replica_->Forward(natural, env, &actions);
    replica_->HoldGated(&actions);
  }
  HarvestResponses(&actions);
  return actions;
}

KernelCore::Actions KernelCore::Dispatch(const proto::Envelope& env,
                                         NodeId natural) {
  Actions actions;
  const NodeId src = env.src_node;
  const std::uint64_t rid = env.req_id;

  if (ssi::SsiServices::Handles(env.type())) {
    if (env.type() == proto::MsgType::kConsoleOut) ++stats_.console_lines;
    ssi::SsiServices::Effects fx = ssi_.Handle(env);
    for (auto& r : fx.out) {
      actions.out.push_back(Outgoing{r.dst, std::move(r.env)});
    }
    for (auto& line : fx.console) actions.console.push_back(std::move(line));
    return actions;
  }

  // GMM-routed request: pick the serving home. With replication off this is
  // always the node's own home (bit-identical to pre-recovery behavior);
  // with replication on it may be a shadow promoted after an eviction
  // (Handle already bounced requests for a home this node does not serve).
  if (natural >= 0) {
    DispatchGmm(replication_on() ? *ServingHome(natural) : home_, env,
                &actions);
    // Stamp responses with the membership epoch they were served under.
    // The receiver's cache-fill path refuses a block whose stamp is not its
    // current epoch: a response that crosses a failover (served by the old
    // primary, or replayed from a shadow's ledger after promotion) carries
    // data the promoted home's empty copyset does not track, so caching it
    // would leave a copy no future write can invalidate.
    for (Outgoing& o : actions.out) {
      if (proto::IsClientResponse(o.env.type())) o.env.epoch = epoch();
    }
    return actions;
  }

  switch (env.type()) {
    case proto::MsgType::kInvalidateReq:
      HandleInvalidate(env, &actions);
      break;

    case proto::MsgType::kSpawnReq: {
      ++stats_.spawns;
      const auto& req = std::get<proto::SpawnReq>(env.body);
      proto::SpawnResp resp;
      if (options_.has_task && !options_.has_task(req.task_name)) {
        // A bad task name is the caller's mistake, not a missing resource:
        // refuse the spawn and let the Status propagate back.
        ++stats_.spawn_rejects;
        resp.error = static_cast<std::uint8_t>(ErrorCode::kInvalidArgument);
      } else {
        const Gpid gpid = processes_.Create(req.task_name);
        resp.gpid = gpid;
        actions.start.push_back(StartTask{gpid, req.task_name, req.arg});
      }
      proto::Envelope reply;
      reply.req_id = rid;
      reply.src_node = self_;
      reply.body = std::move(resp);
      actions.out.push_back(Outgoing{src, std::move(reply)});
      break;
    }

    case proto::MsgType::kJoinReq: {
      ++stats_.joins;
      const auto& req = std::get<proto::JoinReq>(env.body);
      // Tasks die with their node: process state is not replicated, so a
      // join routed here for a gpid hosted on an evicted node fails fast
      // with kUnavailable (the client may re-spawn idempotent tasks).
      if (replication_on() && !NodeAlive(GpidNode(req.gpid))) {
        proto::JoinResp resp;
        resp.gpid = req.gpid;
        resp.error = static_cast<std::uint8_t>(ErrorCode::kUnavailable);
        proto::Envelope reply;
        reply.req_id = rid;
        reply.src_node = self_;
        reply.body = std::move(resp);
        actions.out.push_back(Outgoing{src, std::move(reply)});
        break;
      }
      std::vector<std::uint8_t> result;
      bool unknown = false;
      if (processes_.TryJoin(req.gpid, src, rid, &result, &unknown)) {
        proto::JoinResp resp;
        resp.gpid = req.gpid;
        resp.result = std::move(result);
        proto::Envelope reply;
        reply.req_id = rid;
        reply.src_node = self_;
        reply.body = std::move(resp);
        actions.out.push_back(Outgoing{src, std::move(reply)});
      } else if (unknown) {
        proto::JoinResp resp;
        resp.gpid = req.gpid;
        resp.error = static_cast<std::uint8_t>(ErrorCode::kNotFound);
        proto::Envelope reply;
        reply.req_id = rid;
        reply.src_node = self_;
        reply.body = std::move(resp);
        actions.out.push_back(Outgoing{src, std::move(reply)});
      }
      // Otherwise the joiner is parked; OnLocalTaskExit answers later.
      break;
    }

    case proto::MsgType::kJobSubmitReq: {
      const auto& req = std::get<proto::JobSubmitReq>(env.body);
      proto::JobSubmitResp resp;
      std::vector<sched::Start> starts;
      if (!sched_) {
        // Not the scheduler node, or serving is off for this cluster.
        resp.error =
            static_cast<std::uint8_t>(ErrorCode::kFailedPrecondition);
      } else if (options_.has_task && !options_.has_task(req.task_name)) {
        resp.error = static_cast<std::uint8_t>(ErrorCode::kInvalidArgument);
      } else {
        sched::SubmitOutcome outcome = sched_->Submit(req);
        resp = outcome.resp;
        starts = std::move(outcome.starts);
      }
      proto::Envelope reply;
      reply.req_id = rid;
      reply.src_node = self_;
      reply.body = resp;
      actions.out.push_back(Outgoing{src, std::move(reply)});
      ApplyStarts(std::move(starts), &actions);
      break;
    }

    case proto::MsgType::kJobStartReq: {
      // Scheduler -> this host (one-way): run one gang member here.
      const auto& req = std::get<proto::JobStartReq>(env.body);
      StartJobMember(req.job_id, req.member, req.task_name, req.arg, src,
                     &actions);
      break;
    }

    case proto::MsgType::kJobDoneReq: {
      // Host -> scheduler (one-way): a remote gang member finished.
      const auto& req = std::get<proto::JobDoneReq>(env.body);
      if (sched_) {
        ApplyStarts(sched_->OnMemberDone(req.job_id, req.member), &actions);
      }
      break;
    }

    case proto::MsgType::kSchedStatReq: {
      proto::Envelope reply;
      reply.req_id = rid;
      reply.src_node = self_;
      reply.body = sched_ ? sched_->Stat() : proto::SchedStatResp{};
      actions.out.push_back(Outgoing{src, std::move(reply)});
      break;
    }

    case proto::MsgType::kShutdown:
      actions.shutdown = true;
      break;

    default:
      DSE_CHECK_MSG(false, "unhandled message type in KernelCore");
  }
  return actions;
}

NodeId KernelCore::NaturalHomeOf(const proto::Envelope& env) const {
  switch (env.type()) {
    case proto::MsgType::kReadReq:
      return gmm::HomeOf(std::get<proto::ReadReq>(env.body).addr, num_nodes_);
    case proto::MsgType::kWriteReq:
      return gmm::HomeOf(std::get<proto::WriteReq>(env.body).addr, num_nodes_);
    case proto::MsgType::kAtomicReq:
      return gmm::HomeOf(std::get<proto::AtomicReq>(env.body).addr,
                         num_nodes_);
    case proto::MsgType::kAllocReq:
    case proto::MsgType::kFreeReq:
      return 0;  // the master allocator's home
    case proto::MsgType::kLockReq:
      return static_cast<NodeId>(std::get<proto::LockReq>(env.body).lock_id %
                                 static_cast<std::uint64_t>(num_nodes_));
    case proto::MsgType::kUnlockReq:
      return static_cast<NodeId>(std::get<proto::UnlockReq>(env.body).lock_id %
                                 static_cast<std::uint64_t>(num_nodes_));
    case proto::MsgType::kBarrierEnter:
      return static_cast<NodeId>(
          std::get<proto::BarrierEnter>(env.body).barrier_id %
          static_cast<std::uint64_t>(num_nodes_));
    case proto::MsgType::kInvalidateAck:
      return gmm::HomeOf(std::get<proto::InvalidateAck>(env.body).block_base,
                         num_nodes_);
    case proto::MsgType::kBatchReq: {
      const auto& b = std::get<proto::BatchReq>(env.body);
      if (b.items.empty()) return self_;
      return gmm::HomeOf(b.items.front().addr, num_nodes_);
    }
    default:
      return -1;
  }
}

gmm::GmmHome* KernelCore::ServingHome(NodeId natural) {
  if (natural == self_) return replica_->own_home_pending() ? nullptr : &home_;
  return replica_->Promoted(natural);
}

bool KernelCore::DispatchGmm(gmm::GmmHome& home, const proto::Envelope& env,
                             Actions* actions) {
  const NodeId src = env.src_node;
  const std::uint64_t rid = env.req_id;
  switch (env.type()) {
    case proto::MsgType::kReadReq:
      Emit(actions,
           home.HandleRead(src, rid, std::get<proto::ReadReq>(env.body)));
      return true;
    case proto::MsgType::kWriteReq:
      Emit(actions,
           home.HandleWrite(src, rid, std::get<proto::WriteReq>(env.body)));
      return true;
    case proto::MsgType::kAtomicReq:
      Emit(actions,
           home.HandleAtomic(src, rid, std::get<proto::AtomicReq>(env.body)));
      return true;
    case proto::MsgType::kAllocReq:
      Emit(actions,
           home.HandleAlloc(src, rid, std::get<proto::AllocReq>(env.body)));
      return true;
    case proto::MsgType::kFreeReq:
      Emit(actions,
           home.HandleFree(src, rid, std::get<proto::FreeReq>(env.body)));
      return true;
    case proto::MsgType::kLockReq:
      Emit(actions,
           home.HandleLock(src, rid, std::get<proto::LockReq>(env.body)));
      return true;
    case proto::MsgType::kUnlockReq:
      Emit(actions,
           home.HandleUnlock(src, std::get<proto::UnlockReq>(env.body)));
      return true;
    case proto::MsgType::kBarrierEnter:
      Emit(actions, home.HandleBarrierEnter(
                        src, rid, std::get<proto::BarrierEnter>(env.body)));
      return true;
    case proto::MsgType::kInvalidateAck:
      Emit(actions, home.HandleInvalidateAck(
                        src, std::get<proto::InvalidateAck>(env.body)));
      return true;
    case proto::MsgType::kBatchReq:
      Emit(actions,
           home.HandleBatch(src, rid, std::get<proto::BatchReq>(env.body)));
      return true;
    default:
      return false;
  }
}

proto::Envelope KernelCore::MakeRetryResp(const proto::Envelope& req) const {
  proto::Envelope e;
  e.req_id = req.req_id;
  e.src_node = self_;
  std::lock_guard<std::mutex> lock(route_mu_);
  e.epoch = home_map_.epoch();
  e.body = proto::RetryResp{home_map_.epoch(), home_map_.last_evicted()};
  return e;
}

NodeId KernelCore::Backup() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.BackupOf(self_);
}

bool KernelCore::RoutedHere(NodeId primary) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return !home_map_.IsAlive(primary) && home_map_.Route(primary) == self_;
}

bool KernelCore::Admit(NodeId node, std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.Admit(node, epoch);
}

void KernelCore::InstallView(const std::vector<std::uint8_t>& alive,
                             std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(route_mu_);
  home_map_.InstallView(alive, epoch);
}

void KernelCore::DropCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  stats_.cache_invalidated += cache_.size();
  cache_.clear();
}

bool KernelCore::own_home_pending() const {
  return replica_->own_home_pending();
}

bool KernelCore::transfers_idle() const { return replica_->idle(); }

bool KernelCore::NodeDraining(NodeId node) const {
  return replica_->Draining(node);
}

bool KernelCore::DrainCutoverReady(NodeId node) const {
  // Scheduler quiescence (scheduler node only): running gang members are
  // waited out so the planned eviction never orphans or restarts work.
  return replica_->DrainReported(node) &&
         (!sched_ || sched_->NodeQuiesced(node));
}

KernelCore::Actions KernelCore::ApplyEviction(NodeId dead,
                                              std::uint32_t new_epoch) {
  Actions actions;
  NodeId old_backup = -1;
  std::uint32_t old_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    old_backup = home_map_.BackupOf(self_);
    old_epoch = home_map_.epoch();
    if (!home_map_.Evict(dead, new_epoch)) return actions;  // already gone
  }
  evictions_->Add();
  // Sever the dead node from the node's own home (locks it held release,
  // its queued waits drop, parked barriers discount it, invalidation rounds
  // stop waiting for its ack) and from the process table (joiners parked
  // waiting from it are dropped).
  Emit(&actions, home_.EvictNode(dead));
  processes_.OnNodeEvicted(dead);
  // Serving front door: re-place the dead node's orphaned gang members
  // (idempotent tasks) on the survivors and fail what cannot be re-run.
  if (sched_) ApplyStarts(sched_->OnNodeDead(dead), &actions);
  // Promotion and re-replication (recovery/replica.h).
  replica_->OnEvicted(dead, old_epoch == 0, old_backup, &actions);
  replica_->HoldGated(&actions);
  HarvestResponses(&actions);
  return actions;
}

int KernelCore::QuorumRequired() const {
  if (options_.min_quorum > 0) return options_.min_quorum;
  std::lock_guard<std::mutex> lock(route_mu_);
  return home_map_.Majority();
}

void KernelCore::NoteQuorumPark() { quorum_parks_->Add(); }

KernelCore::Actions KernelCore::ResetForRejoin() {
  Actions bounced;
  for (const auto& [src, req_id] : in_progress_) {
    proto::Envelope req;
    req.req_id = req_id;
    bounced.out.push_back(Outgoing{src, MakeRetryResp(req)});
  }
  home_ = gmm::GmmHome(self_, num_nodes_, options_.read_cache);
  processes_ = pm::ProcessTable(self_);
  completed_.Clear();
  in_progress_.clear();
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_.clear();
  }
  replica_->Reset();
  return bounced;
}

KernelCore::Actions KernelCore::TickTransfers() {
  Actions actions;
  if (replication_on()) replica_->Tick(&actions);
  return actions;
}

void KernelCore::HarvestResponses(Actions* actions) {
  if (in_progress_.empty()) return;
  for (const Outgoing& out : actions->out) {
    if (out.env.req_id == 0 || !proto::IsClientResponse(out.env.type())) {
      continue;
    }
    const DedupeKey key{out.dst, out.env.req_id};
    const auto it = in_progress_.find(key);
    if (it == in_progress_.end()) continue;
    in_progress_.erase(it);
    completed_.Insert(key, out.env);
  }
}

void KernelCore::HandleInvalidate(const proto::Envelope& env,
                                  Actions* actions) {
  const auto& req = std::get<proto::InvalidateReq>(env.body);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_.erase(req.block_base) > 0) ++stats_.cache_invalidated;
  }
  proto::Envelope ack;
  ack.req_id = 0;
  ack.src_node = self_;
  ack.body = proto::InvalidateAck{req.block_base};
  actions->out.push_back(Outgoing{env.src_node, std::move(ack)});
}

void KernelCore::StartJobMember(std::uint64_t job_id, std::uint32_t member,
                                const std::string& task_name,
                                std::vector<std::uint8_t> arg, NodeId origin,
                                Actions* actions) {
  const Gpid gpid = processes_.Create(task_name);
  job_tags_[gpid] = JobTag{job_id, member, origin};
  actions->start.push_back(StartTask{gpid, task_name, std::move(arg)});
}

void KernelCore::ApplyStarts(std::vector<sched::Start> starts,
                             Actions* actions) {
  for (sched::Start& s : starts) {
    if (s.node == self_) {
      StartJobMember(s.job_id, s.member, s.task_name, std::move(s.arg),
                     self_, actions);
    } else {
      proto::Envelope env;
      env.req_id = 0;  // one-way kernel-to-kernel frame
      env.src_node = self_;
      env.body = proto::JobStartReq{s.job_id, s.member, s.task_name,
                                    std::move(s.arg)};
      actions->out.push_back(Outgoing{s.node, std::move(env)});
    }
  }
}

KernelCore::Actions KernelCore::OnLocalTaskExit(
    Gpid gpid, std::vector<std::uint8_t> result) {
  Actions actions;
  auto waiters = processes_.MarkDone(gpid, result);
  for (const auto& [node, req_id] : waiters) {
    proto::JoinResp resp;
    resp.gpid = gpid;
    resp.result = result;
    proto::Envelope reply;
    reply.req_id = req_id;
    reply.src_node = self_;
    reply.body = std::move(resp);
    actions.out.push_back(Outgoing{node, std::move(reply)});
  }
  // A finished gang member reports to its scheduler: locally when the
  // scheduler lives here, else with a one-way JobDoneReq.
  if (const auto it = job_tags_.find(gpid); it != job_tags_.end()) {
    const JobTag tag = it->second;
    job_tags_.erase(it);
    if (tag.origin == self_ && sched_) {
      ApplyStarts(sched_->OnMemberDone(tag.job_id, tag.member), &actions);
    } else if (tag.origin != self_) {
      proto::Envelope done;
      done.req_id = 0;
      done.src_node = self_;
      done.body = proto::JobDoneReq{tag.job_id, tag.member};
      actions.out.push_back(Outgoing{tag.origin, std::move(done)});
    }
  }
  // Deferred JoinResps answer requests still marked in-progress.
  HarvestResponses(&actions);
  return actions;
}

Gpid KernelCore::RegisterLocalTask(const std::string& name) {
  return processes_.Create(name);
}

void KernelCore::CacheInsert(gmm::GlobalAddr block_base,
                             std::vector<std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_[block_base] = std::move(data);
}

void KernelCore::FillCacheFrom(const proto::Envelope& env) {
  if (const auto* rr = std::get_if<proto::ReadResp>(&env.body)) {
    if (rr->block_fetch && env.epoch == epoch()) {
      CacheInsert(rr->addr, rr->data);
    }
  } else if (const auto* br = std::get_if<proto::BatchResp>(&env.body)) {
    if (env.epoch != epoch()) return;
    for (const proto::BatchItemResp& item : br->items) {
      if (item.block_fetch) CacheInsert(item.addr, item.data);
    }
  }
}

bool KernelCore::CacheLookup(gmm::GlobalAddr addr, std::uint64_t len,
                             void* out) {
  const gmm::GlobalAddr base = gmm::BlockBaseOf(addr);
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto it = cache_.find(base);
  if (it == cache_.end()) {
    ++stats_.cache_misses;
    return false;
  }
  const std::uint64_t offset = gmm::OffsetOf(addr) - gmm::OffsetOf(base);
  DSE_CHECK(offset + len <= it->second.size());
  std::memcpy(out, it->second.data() + offset, len);
  ++stats_.cache_hits;
  return true;
}

void KernelCore::CacheUpdateLocal(gmm::GlobalAddr addr, const void* data,
                                  std::uint64_t len) {
  const gmm::GlobalAddr base = gmm::BlockBaseOf(addr);
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto it = cache_.find(base);
  if (it == cache_.end()) return;
  const std::uint64_t offset = gmm::OffsetOf(addr) - gmm::OffsetOf(base);
  DSE_CHECK(offset + len <= it->second.size());
  std::memcpy(it->second.data() + offset, data, len);
}

bool KernelCore::CacheContains(gmm::GlobalAddr block_base) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.count(block_base) > 0;
}

size_t KernelCore::cache_block_count() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

MetricsSnapshot KernelCore::StatsSnapshot() const {
  MetricsSnapshot snap = metrics_.CounterSnapshot();

  auto put = [&snap](const char* name, std::uint64_t v) {
    if (v != 0) snap[name] = v;
  };
  // Kernel-side counters (KernelStats fields are written only under the
  // backend's Handle serialization; the cache fields also race with task
  // threads but are monotonic uint64s — good enough for introspection).
  put("pm.handled", stats_.handled);
  put("pm.spawns", stats_.spawns);
  put("pm.spawn_rejects", stats_.spawn_rejects);
  put("pm.joins", stats_.joins);
  put("ssi.console_lines", stats_.console_lines);
  put("dsm.cache_hits", stats_.cache_hits);
  put("dsm.cache_misses", stats_.cache_misses);
  put("dsm.cache_invalidated", stats_.cache_invalidated);
  put("ssi.names_published", ssi_.name_count());
  put("recovery.draining_nodes", replica_->draining_count());
  put("recovery.epoch", epoch());  // membership epoch (a gauge)

  // Home-side GMM counters; a promoted shadow's activity counts toward the
  // node serving it.
  gmm::GmmHomeStats g = home_.stats();
  for (const auto& [primary, phome] : replica_->promoted()) {
    const gmm::GmmHomeStats& s = phome->stats();
    g.reads += s.reads;
    g.writes += s.writes;
    g.atomics += s.atomics;
    g.allocs += s.allocs;
    g.frees += s.frees;
    g.lock_acquires += s.lock_acquires;
    g.lock_waits += s.lock_waits;
    g.barriers += s.barriers;
    g.barrier_waits += s.barrier_waits;
    g.invalidations += s.invalidations;
    g.deferred_mutations += s.deferred_mutations;
    g.batches += s.batches;
    g.batch_items += s.batch_items;
  }
  put("dsm.home_reads", g.reads);
  put("dsm.home_writes", g.writes);
  put("dsm.home_atomics", g.atomics);
  put("dsm.allocs", g.allocs);
  put("dsm.frees", g.frees);
  put("sync.lock_acquires", g.lock_acquires);
  put("sync.lock_waits", g.lock_waits);
  put("sync.barriers", g.barriers);
  put("sync.barrier_waits", g.barrier_waits);
  put("dsm.invalidations", g.invalidations);
  put("dsm.deferred_mutations", g.deferred_mutations);
  put("gmm.batch.served", g.batches);
  put("gmm.batch.served_items", g.batch_items);

  if (sched_) sched_->AugmentStats(&snap);
  if (options_.augment_stats) options_.augment_stats(&snap);
  return snap;
}

}  // namespace dse
