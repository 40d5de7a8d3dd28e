#include "dse/kernel_core.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "dse/recovery/recovery.h"

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

// FIFO window of remembered responses. Large enough that a retry arriving
// within its deadline window always finds the original outcome.
constexpr size_t kDedupeWindow = 1024;

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
  repl_forwards_ = metrics_.counter("gmm.repl.forwards");
  evictions_ = metrics_.counter("recovery.evictions");
  promotions_ = metrics_.counter("recovery.promotions");
  replayed_ = metrics_.counter("recovery.replayed");
  epoch_bounces_ = metrics_.counter("recovery.epoch_bounces");
  rereplications_ = metrics_.counter("recovery.rereplications");
  rejoins_ = metrics_.counter("recovery.rejoins");
  quorum_parks_ = metrics_.counter("recovery.quorum_parks");
  xfer_chunks_ = metrics_.counter("gmm.xfer.chunks");
  xfer_bytes_ = metrics_.counter("gmm.xfer.bytes");
  drains_ = metrics_.counter("recovery.drains");
  handoff_chunks_ = metrics_.counter("recovery.handoff.chunks");
  handoff_bytes_ = metrics_.counter("recovery.handoff.bytes");
  if (options_.sched.enabled && self_ == 0) {
    sched_ = std::make_unique<sched::Scheduler>(
        num_nodes_, options_.sched, &metrics_, options_.now_us,
        options_.task_idempotent);
  }
}

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
  switch (env.type()) {
    case proto::MsgType::kReplicateReq: {
      Actions actions;
      if (replication_on()) HandleReplicate(env, &actions);
      return actions;
    }
    case proto::MsgType::kReplicateAck: {
      Actions actions;
      if (replication_on()) {
        HandleReplicateAck(env, &actions);
        HarvestResponses(&actions);
      }
      return actions;
    }
    case proto::MsgType::kNodeJoinReq: {
      Actions actions;
      if (replication_on()) HandleNodeJoinReq(env, &actions);
      return actions;
    }
    case proto::MsgType::kNodeJoinResp: {
      Actions actions;
      if (replication_on()) HandleNodeJoinResp(env, &actions);
      return actions;
    }
    case proto::MsgType::kStateChunkReq: {
      Actions actions;
      if (replication_on()) HandleStateChunk(env, &actions);
      return actions;
    }
    case proto::MsgType::kStateChunkResp: {
      Actions actions;
      if (replication_on()) HandleStateChunkAck(env, &actions);
      return actions;
    }
    case proto::MsgType::kDrainReq: {
      Actions actions;
      if (replication_on()) HandleDrainReq(env, &actions);
      return actions;
    }
    case proto::MsgType::kDrainResp: {
      Actions actions;
      if (replication_on()) HandleDrainResp(env, &actions);
      return actions;
    }
    default:
      break;
  }

  // Epoch fence: under replication every routed request carries the
  // membership epoch its sender resolved against. A mismatch means sender
  // and receiver disagree about who serves what — bounce with our view so
  // the lagging side repairs its map and retries (same req_id).
  if (replication_on() && EpochFenced(env.type()) &&
      env.epoch != epoch()) {
    epoch_bounces_->Add();
    Actions actions;
    if (env.req_id != 0) {
      actions.out.push_back(Outgoing{env.src_node, MakeRetryResp(env)});
    }
    return actions;
  }

  // Serving check before the dedupe guard: a GMM request for a home this
  // node does not (or does not yet — rejoin handoff in flight) serve must
  // bounce *without* entering the at-most-once cache, or the eventual retry
  // against the installed home would be dropped as an in-flight duplicate.
  if (replication_on()) {
    const NodeId natural = NaturalHomeOf(env);
    if (natural >= 0 && ServingHome(natural) == nullptr) {
      Actions actions;
      if (env.req_id != 0) {
        actions.out.push_back(Outgoing{env.src_node, MakeRetryResp(env)});
      }
      return actions;
    }
  }

  // At-most-once guard: a retried mutating request (same requester and
  // req_id) must not re-execute. Replay the remembered response if the
  // original completed; drop the duplicate if it is still in flight (its
  // deferred response will answer both).
  const bool tracked = env.req_id != 0 && RequestNeedsDedupe(env);
  const DedupeKey key{env.src_node, env.req_id};
  if (tracked) {
    if (const auto it = completed_.find(key); it != completed_.end()) {
      dedupe_replays_->Add();
      Actions replay;
      replay.out.push_back(Outgoing{env.src_node, it->second});
      return replay;
    }
    if (in_progress_.count(key) > 0) {
      dedupe_drops_->Add();
      Actions actions;
      // The reply this duplicate is chasing may be gated on an unacked
      // replication record (the ack or the record itself was lost): the
      // retry doubles as the retransmission trigger.
      if (replication_on()) ResendGatedFor(key, &actions);
      return actions;
    }
    in_progress_.insert(key);
  }

  Actions actions = Dispatch(env);
  if (replication_on()) {
    if (ReplicationNeeded(env)) ForwardToBackup(env, &actions);
    HoldGatedResponses(&actions);
  }
  HarvestResponses(&actions);
  return actions;
}

KernelCore::Actions KernelCore::Dispatch(const proto::Envelope& env) {
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
  // with replication on it may be a shadow promoted after an eviction.
  const NodeId natural = NaturalHomeOf(env);
  if (natural >= 0) {
    gmm::GmmHome* serving = &home_;
    if (replication_on()) {
      serving = ServingHome(natural);
      if (serving == nullptr) {
        // Epochs agree but this node does not serve the home (the promotion
        // landed on a different survivor, or our own home is mid-handoff):
        // bounce so the sender re-resolves and retries.
        if (rid != 0) {
          actions.out.push_back(Outgoing{src, MakeRetryResp(env)});
        }
        return actions;
      }
    }
    DispatchGmm(*serving, env, &actions);
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
  if (natural == self_) return own_home_pending_ ? nullptr : &home_;
  const auto it = promoted_.find(natural);
  return it == promoted_.end() ? nullptr : it->second.get();
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

bool KernelCore::ReplicationNeeded(const proto::Envelope& env) {
  switch (env.type()) {
    case proto::MsgType::kWriteReq:
    case proto::MsgType::kAtomicReq:
    case proto::MsgType::kAllocReq:
    case proto::MsgType::kFreeReq:
    case proto::MsgType::kLockReq:
    case proto::MsgType::kUnlockReq:
    case proto::MsgType::kBarrierEnter:
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

void KernelCore::ForwardToBackup(const proto::Envelope& env,
                                 Actions* actions) {
  // Every home this node serves replicates to the node's ring successor:
  // its own home and any promoted ones. (A mutation this node did not serve
  // — a bounced request — must not be forwarded.) Records stay keyed by the
  // *natural* primary so the backup's shadows survive holder changes.
  const NodeId natural = NaturalHomeOf(env);
  if (natural < 0) return;
  if (natural == self_) {
    if (own_home_pending_) return;
  } else if (promoted_.count(natural) == 0) {
    return;
  }
  NodeId backup = -1;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    backup = home_map_.BackupOf(self_);
  }
  if (backup < 0) return;  // last node standing: nothing to replicate to

  proto::ReplicateReq rec;
  rec.primary = natural;
  rec.seq = repl_next_seq_++;
  rec.epoch = epoch();
  rec.inner = proto::Encode(env);
  const std::uint64_t seq = rec.seq;

  PendingRepl pending;
  pending.backup = backup;
  pending.origin = DedupeKey{env.src_node, env.req_id};
  pending.record.req_id = 0;
  pending.record.src_node = self_;
  pending.record.epoch = rec.epoch;
  pending.record.body = std::move(rec);

  // Gate every client reply this dispatch produced on the backup's ack: a
  // reply the requester can observe must describe state that already
  // survives this node's death. (That includes grants/releases for *other*
  // waiters unblocked by this mutation.)
  for (auto it = actions->out.begin(); it != actions->out.end();) {
    if (it->env.req_id != 0 && proto::IsClientResponse(it->env.type())) {
      pending.held.push_back(std::move(*it));
      it = actions->out.erase(it);
    } else {
      ++it;
    }
  }

  actions->out.push_back(Outgoing{backup, pending.record});
  if (env.req_id != 0) repl_gated_[pending.origin] = seq;
  repl_pending_.emplace(seq, std::move(pending));
  repl_forwards_->Add();
}

void KernelCore::HoldGatedResponses(Actions* actions) {
  if (repl_gated_.empty()) return;
  for (auto it = actions->out.begin(); it != actions->out.end();) {
    const proto::Envelope& e = it->env;
    if (e.req_id != 0 && proto::IsClientResponse(e.type())) {
      // A deferred reply (e.g. a write ack completing after its
      // invalidation round) whose origin is still awaiting the backup ack
      // joins the gated set instead of going out.
      const auto g = repl_gated_.find(DedupeKey{it->dst, e.req_id});
      if (g != repl_gated_.end()) {
        repl_pending_.at(g->second).held.push_back(std::move(*it));
        it = actions->out.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void KernelCore::RestampPendingRecords() {
  const std::uint32_t e = epoch();
  for (auto& [seq, p] : repl_pending_) {
    p.record.epoch = e;
    std::get<proto::ReplicateReq>(p.record.body).epoch = e;
  }
}

void KernelCore::ResendGatedFor(const DedupeKey& key, Actions* actions) {
  const auto g = repl_gated_.find(key);
  if (g != repl_gated_.end()) {
    const PendingRepl& p = repl_pending_.at(g->second);
    actions->out.push_back(Outgoing{p.backup, p.record});
    return;
  }
  // The retried request may be chasing a reply held behind a *different*
  // origin's record (a LockGrant gated on the unlocker's UnlockReq record).
  for (const auto& [seq, p] : repl_pending_) {
    for (const Outgoing& h : p.held) {
      if (h.dst == key.first && h.env.req_id == key.second) {
        actions->out.push_back(Outgoing{p.backup, p.record});
        return;
      }
    }
  }
}

void KernelCore::HandleReplicate(const proto::Envelope& env,
                                 Actions* actions) {
  const auto& rec = std::get<proto::ReplicateReq>(env.body);
  ShadowHome& shadow = shadows_[rec.primary];
  const auto ack = [&] {
    proto::Envelope a;
    a.req_id = 0;
    a.src_node = self_;
    a.body = proto::ReplicateAck{rec.seq};
    actions->out.push_back(Outgoing{env.src_node, std::move(a)});
  };
  if (shadow.seen.count(rec.seq) > 0) {
    ack();  // retransmission: re-ack without re-applying
    return;
  }
  // Epoch fence for records: sender and receiver must agree on membership
  // or the shadow could apply a mutation the promoted order never saw.
  // Silently ignored (no ack) — the primary retransmits after both sides
  // converge.
  if (rec.epoch != epoch()) {
    return;
  }
  // A record for a primary whose state is mid-transfer to us is acked (the
  // sender may release its gated client replies) but applied only once the
  // blob installs, in arrival order: the snapshot was taken before any such
  // record was forwarded, so blob + buffered records is the full history.
  if (const auto xit = xfer_in_.find(rec.primary); xit != xfer_in_.end()) {
    shadow.seen.insert(rec.seq);
    shadow.seen_order.push_back(rec.seq);
    xit->second.buffered.push_back(env);
    ack();
    return;
  }
  if (!shadow.home) {
    if (epoch() > 0) {
      // No base state and no transfer open yet. Past the first membership
      // change every fresh record stream is preceded by a state transfer
      // (the new primary snapshots before it forwards), but the snapshot's
      // first chunk and the records leave the sender on different threads
      // — the eviction path streams chunks from the failure detector's
      // thread while the service loop forwards records — so a record can
      // beat chunk 0 here. Applying it to an empty lazily-created home
      // would be fatal: the install would replace that home with the
      // snapshot, silently discarding an acked mutation. Stash it instead;
      // InstallTransfer replays the stash (then the mid-transfer buffer)
      // on top of the blob, reconstructing exact arrival order.
      shadow.seen.insert(rec.seq);
      shadow.seen_order.push_back(rec.seq);
      shadow.pending_records.push_back(env);
      ack();
      return;
    }
    // Epoch 0: the stream starts with the primary's first-ever mutation, so
    // an empty replica is the correct base. Shadows replay with coherence
    // off: nobody caches from a shadow, so there are no copysets to
    // maintain until (if ever) it is promoted.
    shadow.home = std::make_unique<gmm::GmmHome>(rec.primary, num_nodes_,
                                                 /*coherence=*/false);
  }
  auto inner = proto::Decode(rec.inner);
  DSE_CHECK_MSG(inner.ok(), "malformed replication record");
  Actions shadow_out;
  const bool handled = DispatchGmm(*shadow.home, inner.value(), &shadow_out);
  DSE_CHECK_MSG(handled, "non-GMM replication record");
  for (auto& o : shadow_out.out) {
    // Keep the client responses the shadow would have produced: on
    // promotion they seed the dedupe cache so an in-flight retry replays
    // the original outcome instead of re-executing. Everything else the
    // shadow emits (e.g. invalidations — coherence is off) is discarded.
    if (o.env.req_id != 0 && proto::IsClientResponse(o.env.type())) {
      RecordShadowResponse(rec.primary, o.dst, std::move(o.env));
    }
  }
  shadow.seen.insert(rec.seq);
  shadow.seen_order.push_back(rec.seq);
  while (shadow.seen_order.size() > kDedupeWindow) {
    shadow.seen.erase(shadow.seen_order.front());
    shadow.seen_order.pop_front();
  }
  ack();
}

void KernelCore::HandleReplicateAck(const proto::Envelope& env,
                                    Actions* actions) {
  const auto& a = std::get<proto::ReplicateAck>(env.body);
  const auto it = repl_pending_.find(a.seq);
  if (it == repl_pending_.end()) return;  // duplicate ack
  for (Outgoing& held : it->second.held) {
    actions->out.push_back(std::move(held));
  }
  repl_gated_.erase(it->second.origin);
  repl_pending_.erase(it);
}

void KernelCore::RecordShadowResponse(NodeId primary, NodeId dst,
                                      proto::Envelope env) {
  ShadowHome& shadow = shadows_[primary];
  env.src_node = self_;  // after promotion, this node answers the retry
  // Stamp with the epoch at record time. Promotion always bumps the epoch,
  // so a replay of this response can never match the receiver's current
  // epoch — its block data is served to the waiting call but never cached,
  // because the promoted home's copyset has no record of the reader.
  env.epoch = epoch();
  const DedupeKey key{dst, env.req_id};
  if (shadow.completed.emplace(key, std::move(env)).second) {
    shadow.completed_order.push_back(key);
    while (shadow.completed_order.size() > kDedupeWindow) {
      shadow.completed.erase(shadow.completed_order.front());
      shadow.completed_order.pop_front();
    }
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

  // The dead node's homes move: every cached block whose home changed would
  // be stale-routed, so drop the whole client cache (it refills).
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    stats_.cache_invalidated += cache_.size();
    cache_.clear();
  }

  // Replies gated on an ack from the dead backup can never be released by
  // it. Release them now: the mutation executed exactly once here and there
  // is no surviving replica to keep consistent.
  for (auto it = repl_pending_.begin(); it != repl_pending_.end();) {
    if (it->second.backup == dead) {
      for (Outgoing& held : it->second.held) {
        actions.out.push_back(std::move(held));
      }
      repl_gated_.erase(it->second.origin);
      it = repl_pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Records still awaiting a SURVIVING backup's ack carry the old epoch
  // stamp; the backup's record fence would drop every retransmission of
  // them forever. Re-stamp under the new epoch: the mutation order at this
  // primary is unaffected by the membership change, so the record is as
  // valid under the new view as it was under the old.
  RestampPendingRecords();

  // A state transfer in flight FROM the dead node dies with it. When it was
  // re-seeding a replica this node already holds (a drain handoff cut short
  // by the source's death), the records acked-and-buffered during the copy
  // exist nowhere else: the aborted blob can no longer carry them, and they
  // were deliberately not applied to the pre-existing shadow. Replay them
  // onto that shadow now — before the promotion below — or a mid-drain
  // death would lose acked writes. With no prior shadow the buffered
  // records have no base state (the standard double-fault window) and the
  // entry is simply dropped.
  for (auto it = xfer_in_.begin(); it != xfer_in_.end();) {
    if (it->second.from != dead) {
      ++it;
      continue;
    }
    const NodeId primary = it->first;
    const auto sit = shadows_.find(primary);
    if (sit != shadows_.end() && sit->second.home) {
      for (const proto::Envelope& rec_env : it->second.buffered) {
        const auto& rec = std::get<proto::ReplicateReq>(rec_env.body);
        auto inner = proto::Decode(rec.inner);
        DSE_CHECK_MSG(inner.ok(), "malformed buffered replication record");
        Actions shadow_out;
        const bool handled =
            DispatchGmm(*sit->second.home, inner.value(), &shadow_out);
        DSE_CHECK_MSG(handled, "non-GMM buffered replication record");
        for (auto& o : shadow_out.out) {
          if (o.env.req_id != 0 && proto::IsClientResponse(o.env.type())) {
            RecordShadowResponse(primary, o.dst, std::move(o.env));
          }
        }
      }
    }
    it = xfer_in_.erase(it);
  }

  // The dead node may have been mid-handoff back to us as a rejoiner's
  // previous holder — that can't be us — or mid-handoff *from* us: if we
  // were streaming a home back to `dead` (it rejoined and died again before
  // the handoff finished), resume serving it from the snapshot.
  if (const auto hit = xfer_out_.find(dead);
      hit != xfer_out_.end() && hit->second.demote &&
      hit->second.target == dead) {
    auto revived = std::make_unique<gmm::GmmHome>(dead, num_nodes_,
                                                  /*coherence=*/false);
    DSE_CHECK(revived->InstallState(hit->second.blob).ok());
    revived->set_coherence(options_.read_cache);
    promoted_[dead] = std::move(revived);
    xfer_out_.erase(hit);
  }

  // Promote our shadow of every dead primary whose ring slot now routes
  // here (normally just `dead`; after cascaded failures possibly a home it
  // was serving for an earlier victim, re-replicated to us in between). The
  // shadow becomes the serving home, and the responses it recorded seed the
  // dedupe cache so in-flight retries replay original outcomes.
  std::vector<NodeId> freshly_promoted;
  for (NodeId p = 0; p < num_nodes_; ++p) {
    if (p == self_ || promoted_.count(p) > 0) continue;
    bool routed_here = false;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      routed_here = !home_map_.IsAlive(p) && home_map_.Route(p) == self_;
    }
    if (!routed_here) continue;
    const auto sit = shadows_.find(p);
    if (sit == shadows_.end()) {
      // Not one replication record ever arrived for p. Before the first
      // membership change this node has been p's ring backup since boot,
      // so that absence is PROOF the home never acked a mutation (every
      // acked reply is gated on this backup's record ack): an empty home
      // IS its exact state, and promoting one loses nothing — unacked
      // in-flight writes re-drive against it through the normal retry
      // path. Past the first epoch the same absence can mean an
      // interrupted re-replication chain (the double-fault window), so
      // the home stays unavailable rather than silently serving zeros.
      if (old_epoch == 0) {
        auto empty = std::make_unique<gmm::GmmHome>(p, num_nodes_,
                                                    /*coherence=*/false);
        empty->set_coherence(options_.read_cache);
        promoted_[p] = std::move(empty);
        promotions_->Add();
        freshly_promoted.push_back(p);
      }
      continue;  // no replica: home unavailable
    }
    ShadowHome& shadow = sit->second;
    if (shadow.home) {
      shadow.home->set_coherence(options_.read_cache);
      promoted_[p] = std::move(shadow.home);
      // A drain-seeded shadow's adoption is the planned cutover, not a
      // failover: it is complete by construction (snapshot + every record
      // forwarded since), so it counts under recovery.drains.
      if (shadow.drain_ready) {
        drains_->Add();
      } else {
        promotions_->Add();
      }
      freshly_promoted.push_back(p);
      for (auto& [key, resp] : shadow.completed) {
        if (completed_.emplace(key, std::move(resp)).second) {
          completed_order_.push_back(key);
          replayed_->Add();
        }
      }
      while (completed_order_.size() > kDedupeWindow) {
        completed_.erase(completed_order_.front());
        completed_order_.pop_front();
      }
    }
    shadows_.erase(sit);
  }

  // Sever the dead node from every home this node serves or mirrors: locks
  // it held release, its queued waits drop, parked barriers discount it,
  // and invalidation rounds stop waiting for its ack.
  Emit(&actions, home_.EvictNode(dead));
  for (auto& [primary, phome] : promoted_) {
    Emit(&actions, phome->EvictNode(dead));
  }
  for (auto& [primary, shadow] : shadows_) {
    if (!shadow.home) continue;
    // Shadow emissions are recorded, not sent: the primary runs the same
    // eviction and sends its own copies; ours only matter after promotion.
    auto replies = shadow.home->EvictNode(dead);
    for (auto& r : replies) {
      if (r.env.req_id != 0 && proto::IsClientResponse(r.env.type())) {
        RecordShadowResponse(primary, r.dst, std::move(r.env));
      }
    }
  }

  // Joiners parked in our table waiting from the dead node get dropped.
  processes_.OnNodeEvicted(dead);
  shadows_.erase(dead);  // a shadow routed to another survivor is stale
  // The eviction completes (or supersedes) any drain of the dead node.
  draining_.erase(dead);
  drain_ready_.erase(dead);

  // Serving front door: re-place the dead node's orphaned gang members
  // (idempotent tasks) on the survivors and fail what cannot be re-run.
  if (sched_) ApplyStarts(sched_->OnNodeDead(dead), &actions);

  // Re-replication (docs/recovery.md): restore f = 1 for every home this
  // node serves whose replica the eviction invalidated — freshly promoted
  // homes have no replica yet, and a changed ring successor has none of our
  // history. In-flight transfers re-snapshot under the new epoch (their
  // stale-stamped chunks would be dropped by the receiver's fence).
  NodeId new_backup = -1;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    new_backup = home_map_.BackupOf(self_);
  }
  if (new_backup >= 0) {
    const bool backup_changed = new_backup != old_backup;
    std::set<NodeId> stream;
    for (const NodeId p : freshly_promoted) stream.insert(p);
    for (const auto& [p, xfer] : xfer_out_) {
      if (!xfer.demote) stream.insert(p);
    }
    if (backup_changed) {
      if (!own_home_pending_) stream.insert(self_);
      for (const auto& [p, phome] : promoted_) stream.insert(p);
    }
    for (const NodeId p : stream) {
      StartTransfer(p, new_backup, /*demote=*/false, &actions);
    }
  }

  HoldGatedResponses(&actions);
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
  shadows_.clear();
  promoted_.clear();
  repl_pending_.clear();
  repl_gated_.clear();
  repl_next_seq_ = 1;
  completed_.clear();
  completed_order_.clear();
  in_progress_.clear();
  xfer_out_.clear();
  xfer_in_.clear();
  xfer_installed_.clear();
  xfer_deferred_.clear();
  draining_.clear();
  drain_ready_.clear();
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_.clear();
  }
  own_home_pending_ = true;
  return bounced;
}

void KernelCore::StartTransfer(NodeId primary, NodeId target, bool demote,
                               Actions* actions, bool drain) {
  if (target == self_ || target < 0) return;
  gmm::GmmHome* source = ServingHome(primary);
  gmm::GmmHome empty_home(primary, num_nodes_, false);
  if (source == nullptr) {
    // Rejoin hand-back with nothing to hand back: the returned node's home
    // was never promoted here (it held no data when it died). Stream an
    // empty snapshot anyway — the joiner needs the completed transfer to
    // clear own_home_pending_ and serve allocations again, and we need the
    // demote bookkeeping to install its empty shadow.
    if (!(demote && target == primary)) return;
    source = &empty_home;
  }
  if (source->pending_block_count() > 0) {
    // Mid-invalidation-round homes cannot snapshot; retry from the
    // transfer tick once the round drains.
    for (auto& d : xfer_deferred_) {
      if (d.primary == primary) {
        d.drain = d.drain || drain;
        return;  // already queued
      }
    }
    xfer_deferred_.push_back(DeferredTransfer{primary, target, demote, drain});
    return;
  }
  OutgoingTransfer xfer;
  xfer.target = target;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    xfer.epoch = home_map_.epoch();
  }
  xfer.blob = source->SerializeState();
  xfer.total = static_cast<std::uint32_t>(
      (xfer.blob.size() + recovery::kStateChunkBytes - 1) /
      recovery::kStateChunkBytes);
  if (xfer.total == 0) xfer.total = 1;
  xfer.next = 0;
  xfer.demote = demote;
  xfer.drain = drain;
  if (demote) {
    // Rejoin handoff: stop serving immediately — the returned owner is the
    // primary again; requests bounce until it has the state installed.
    promoted_.erase(primary);
  }
  xfer_out_[primary] = std::move(xfer);
  SendChunk(primary, actions);
}

void KernelCore::SendChunk(NodeId primary, Actions* actions) {
  const auto it = xfer_out_.find(primary);
  if (it == xfer_out_.end()) return;
  const OutgoingTransfer& xfer = it->second;
  proto::StateChunkReq chunk;
  chunk.primary = primary;
  chunk.epoch = xfer.epoch;
  chunk.index = xfer.next;
  chunk.total = xfer.total;
  const std::size_t begin = xfer.next * recovery::kStateChunkBytes;
  const std::size_t end =
      std::min(begin + recovery::kStateChunkBytes, xfer.blob.size());
  if (begin < end) {
    chunk.data.assign(xfer.blob.begin() + begin, xfer.blob.begin() + end);
  }
  xfer_chunks_->Add();
  xfer_bytes_->Add(chunk.data.size());
  if (xfer.drain) {
    handoff_chunks_->Add();
    handoff_bytes_->Add(chunk.data.size());
  }
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = self_;
  env.epoch = xfer.epoch;
  env.body = std::move(chunk);
  actions->out.push_back(Outgoing{xfer.target, std::move(env)});
}

KernelCore::Actions KernelCore::TickTransfers() {
  Actions actions;
  if (!replication_on()) return actions;
  // Retry deferred starts whose serving home has drained its rounds
  // (StartTransfer re-defers the ones that have not).
  std::vector<DeferredTransfer> ready;
  ready.swap(xfer_deferred_);
  for (const DeferredTransfer& d : ready) {
    StartTransfer(d.primary, d.target, d.demote, &actions, d.drain);
  }
  // Resend the in-flight chunk of every transfer that sat unacked for a
  // whole tick (lost chunk or lost ack: receivers re-ack duplicates, so this
  // is idempotent).
  for (auto& [primary, xfer] : xfer_out_) {
    if (xfer.stalled) SendChunk(primary, &actions);
    xfer.stalled = true;
  }
  // Draining, fully handed off, and hosting no resident tasks: report
  // cutover readiness to the coordinator. Re-sent every tick (the one-way
  // frame may be lost); the coordinator's drain_ready_ insert is
  // idempotent. The resident-task gate mirrors the scheduler quiesce on
  // the cutover side: a drain waits out everything still running here —
  // cutting over under a live task would zombify it (unlike a kill, a
  // drain drops no frames, so the zombie's completion would later hit a
  // process table that no longer knows it).
  if (draining_.count(self_) > 0 && transfers_idle() &&
      processes_.running_count() == 0) {
    NodeId coord = -1;
    std::uint32_t e = 0;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      coord = home_map_.Coordinator();
      e = home_map_.epoch();
    }
    if (coord == self_) {
      drain_ready_.insert(self_);  // coordinator draining itself
    } else if (coord >= 0) {
      proto::Envelope env;
      env.req_id = 0;
      env.src_node = self_;
      env.epoch = e;
      env.body = proto::DrainResp{self_, e};
      actions.out.push_back(Outgoing{coord, std::move(env)});
    }
  }
  return actions;
}

void KernelCore::HandleDrainReq(const proto::Envelope& env, Actions* actions) {
  const auto& req = std::get<proto::DrainReq>(env.body);
  const NodeId node = req.node;
  if (node < 0 || node >= num_nodes_) return;
  if (!NodeAlive(node)) return;  // already evicted: stale drain
  if (!draining_.insert(node).second) return;  // duplicate broadcast
  // The scheduler node stops placing new gang members there; running ones
  // are waited out (counted under sched.drained_jobs), never shed.
  if (sched_) sched_->OnNodeDraining(node);
  if (node == self_) {
    StartDrainHandoff(actions);
  }
  if (CoordinatorView() == self_) {
    actions->console.push_back("[drain] node " + std::to_string(node) +
                               " draining: handoff started");
  }
}

void KernelCore::HandleDrainResp(const proto::Envelope& env, Actions* actions) {
  const auto& resp = std::get<proto::DrainResp>(env.body);
  const NodeId node = resp.node;
  if (node < 0 || node >= num_nodes_) return;
  // A stale epoch means a real failover interleaved with the drain; the
  // readiness claim no longer describes the current membership.
  if (resp.epoch != epoch()) return;
  if (draining_.count(node) == 0) return;
  if (drain_ready_.insert(node).second) {
    actions->console.push_back("[drain] node " + std::to_string(node) +
                               " handoff complete: ready for cutover");
  }
}

void KernelCore::StartDrainHandoff(Actions* actions) {
  NodeId backup = -1;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    backup = home_map_.BackupOf(self_);
  }
  if (backup < 0) {
    draining_.erase(self_);  // last node standing: nowhere to hand off
    return;
  }
  // Tag (rather than restart) a transfer already streaming to the backup:
  // a same-epoch restart would trip the receiver's duplicate-chunk-0
  // detection and wedge the handoff.
  const auto mark_or_start = [&](NodeId p) {
    if (const auto it = xfer_out_.find(p);
        it != xfer_out_.end() && it->second.target == backup &&
        !it->second.demote) {
      it->second.drain = true;
      return;
    }
    for (auto& d : xfer_deferred_) {
      if (d.primary == p && d.target == backup && !d.demote) {
        d.drain = true;
        return;
      }
    }
    StartTransfer(p, backup, /*demote=*/false, actions, /*drain=*/true);
  };
  if (!own_home_pending_) mark_or_start(self_);
  for (const auto& [p, phome] : promoted_) mark_or_start(p);
}

bool KernelCore::DrainCutoverReady(NodeId node) const {
  if (draining_.count(node) == 0 || drain_ready_.count(node) == 0) {
    return false;
  }
  // Scheduler quiescence (scheduler node only): running gang members are
  // waited out so the planned eviction never orphans or restarts work.
  if (sched_ && !sched_->NodeQuiesced(node)) return false;
  return true;
}

void KernelCore::HandleNodeJoinReq(const proto::Envelope& env,
                                   Actions* actions) {
  const auto& req = std::get<proto::NodeJoinReq>(env.body);
  const NodeId node = req.node;
  if (!options_.rejoin) return;
  if (node < 0 || node >= num_nodes_ || node == self_) return;
  bool already_member = false;
  bool is_coordinator = false;
  std::uint32_t cur_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    already_member = home_map_.IsAlive(node);
    is_coordinator = home_map_.Coordinator() == self_;
    cur_epoch = home_map_.epoch();
  }
  const auto respond = [&](std::uint32_t e, NodeId dst) {
    proto::NodeJoinResp resp;
    resp.node = node;
    resp.epoch = e;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      resp.alive = home_map_.AliveBitmap();
    }
    proto::Envelope out;
    out.req_id = 0;
    out.src_node = self_;
    out.epoch = e;
    out.body = std::move(resp);
    actions->out.push_back(Outgoing{dst, std::move(out)});
  };
  if (already_member) {
    // Duplicate join (our broadcast raced the retry): re-send the admission
    // to the joiner only.
    respond(cur_epoch, node);
    return;
  }
  if (!is_coordinator) return;  // joiner retries against the re-announcer
  const std::uint32_t new_epoch = cur_epoch + 1;
  NodeId prior_holder = -1;
  NodeId prior_backup = -1;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    prior_holder = home_map_.Route(node);
    prior_backup = home_map_.BackupOf(self_);
    if (!home_map_.Admit(node, new_epoch)) return;
  }
  rejoins_->Add();
  // Tell everyone — including the joiner, whose view is stale — then run
  // our own admission side effects.
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (n == self_) continue;
    bool alive = false;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      alive = home_map_.IsAlive(n);
    }
    if (alive) respond(new_epoch, n);
  }
  OnAdmitted(node, prior_holder == self_, prior_backup, actions);
}

void KernelCore::HandleNodeJoinResp(const proto::Envelope& env,
                                    Actions* actions) {
  const auto& resp = std::get<proto::NodeJoinResp>(env.body);
  const NodeId node = resp.node;
  if (node < 0 || node >= num_nodes_) return;
  if (node == self_) {
    // Our own admission: install the coordinator's full membership view.
    std::lock_guard<std::mutex> lock(route_mu_);
    home_map_.InstallView(resp.alive, resp.epoch);
    return;
  }
  NodeId prior_holder = -1;
  NodeId prior_backup = -1;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (home_map_.IsAlive(node)) return;  // duplicate broadcast
    prior_holder = home_map_.Route(node);
    prior_backup = home_map_.BackupOf(self_);
    if (!home_map_.Admit(node, resp.epoch)) return;
  }
  OnAdmitted(node, prior_holder == self_, prior_backup, actions);
}

void KernelCore::OnAdmitted(NodeId node, bool was_holder, NodeId old_backup,
                            Actions* actions) {
  // The admission bumped the epoch: re-stamp pending replication records or
  // the backup's record fence would drop their retransmissions forever.
  RestampPendingRecords();
  // Routes changed: every cached block whose home moved back would be
  // stale-routed, so drop the whole client cache (it refills).
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    stats_.cache_invalidated += cache_.size();
    cache_.clear();
  }
  // A shadow of the returned node's home mirrors its *previous holder's*
  // serving copy; the handoff re-seeds replication from scratch.
  shadows_.erase(node);
  xfer_in_.erase(node);
  // A rejoining node starts a clean lifecycle: any stale drain marking
  // (e.g. the drain that led to its planned eviction) is gone.
  draining_.erase(node);
  drain_ready_.erase(node);
  if (was_holder && promoted_.count(node) > 0) {
    // Hand the home back to its owner over the transfer machinery; on
    // completion we keep the snapshot as the returned primary's new shadow
    // (we are its ring successor again, so f = 1 is instantly restored).
    StartTransfer(node, node, /*demote=*/true, actions);
  }
  // Re-admission can also re-route a *different* dead node's slot (the
  // joiner sits between that node and us in the ring): hand those homes to
  // the joiner too — it promotes them on arrival.
  std::vector<NodeId> still_mine;
  std::vector<NodeId> moved;
  for (const auto& [p, phome] : promoted_) {
    bool mine = false;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      mine = home_map_.Route(p) == self_;
    }
    (mine ? still_mine : moved).push_back(p);
  }
  for (const NodeId p : moved) {
    StartTransfer(p, node, /*demote=*/true, actions);
  }
  // The joiner slotted back into the ring: if it is our new successor, it
  // has none of our history — re-seed it.
  NodeId new_backup = -1;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    new_backup = home_map_.BackupOf(self_);
  }
  if (new_backup >= 0 && new_backup != old_backup) {
    if (!own_home_pending_) {
      StartTransfer(self_, new_backup, /*demote=*/false, actions);
    }
    for (const NodeId p : still_mine) {
      StartTransfer(p, new_backup, /*demote=*/false, actions);
    }
  }
  // Serving front door: the rejoined node's slots are schedulable again.
  if (sched_) ApplyStarts(sched_->OnNodeAlive(node), actions);
}

void KernelCore::HandleStateChunk(const proto::Envelope& env,
                                  Actions* actions) {
  const auto& chunk = std::get<proto::StateChunkReq>(env.body);
  const NodeId primary = chunk.primary;
  if (primary < 0 || primary >= num_nodes_) return;
  const bool rejoin_handoff = primary == self_;
  if (rejoin_handoff && !own_home_pending_) return;  // stale handoff replay
  // Epoch fence — except for our own rejoin handoff, which may outrun the
  // NodeJoinResp that would teach us the new epoch (different links).
  if (!rejoin_handoff && chunk.epoch != epoch()) return;
  const auto ack = [&](std::uint32_t index) {
    proto::Envelope a;
    a.req_id = 0;
    a.src_node = self_;
    a.body = proto::StateChunkResp{primary, index};
    actions->out.push_back(Outgoing{env.src_node, std::move(a)});
  };
  // An xfer_in_ entry flips the node into buffer-don't-apply mode for the
  // primary's live records, so it must only exist for a genuinely active
  // transfer — never materialize one for a stray chunk. The stray that
  // matters: a tick-retransmitted chunk of a transfer that ALREADY
  // installed (its ack raced the retransmission). Re-ack it without
  // re-opening the transfer, or the stale snapshot would roll back every
  // record applied since the install.
  auto xit = xfer_in_.find(primary);
  if (xit == xfer_in_.end()) {
    const auto done = xfer_installed_.find(primary);
    if (done != xfer_installed_.end() && done->second == chunk.epoch) {
      ack(chunk.index);
      return;
    }
  }
  if (chunk.index == 0) {
    if (xit != xfer_in_.end() && xit->second.received > 0 &&
        xit->second.epoch == chunk.epoch) {
      ack(0);  // duplicate first chunk: already absorbed
      return;
    }
    xit = xfer_in_.insert_or_assign(primary, IncomingTransfer{}).first;
    xit->second.epoch = chunk.epoch;
    xit->second.total = chunk.total;
    xit->second.from = env.src_node;
  } else {
    if (xit == xfer_in_.end()) return;  // stray chunk, no active transfer
    IncomingTransfer& in = xit->second;
    if (in.epoch != chunk.epoch || chunk.total != in.total) {
      return;  // chunk of a superseded transfer
    }
    if (chunk.index < in.received) {
      ack(chunk.index);  // duplicate: re-ack, already absorbed
      return;
    }
    if (chunk.index > in.received) {
      return;  // gap (cannot happen on a FIFO link): sender resends
    }
  }
  IncomingTransfer& in = xit->second;
  in.blob.insert(in.blob.end(), chunk.data.begin(), chunk.data.end());
  in.received += 1;
  ack(chunk.index);
  if (in.received == in.total) InstallTransfer(primary, actions);
}

void KernelCore::InstallTransfer(NodeId primary, Actions* actions) {
  (void)actions;  // installs mutate local state only; replies already went
  const auto it = xfer_in_.find(primary);
  DSE_CHECK(it != xfer_in_.end());
  IncomingTransfer in = std::move(it->second);
  xfer_in_.erase(it);
  xfer_installed_[primary] = in.epoch;
  if (primary == self_) {
    // Rejoin handoff: the cluster handed our home back — install and serve.
    DSE_CHECK_MSG(home_.InstallState(in.blob).ok(),
                  "malformed rejoin state blob");
    own_home_pending_ = false;
    return;
  }
  // Fresh replica: a shadow reconstructed from the snapshot, then the live
  // records that raced or overlapped the stream, in arrival order — first
  // those that beat the first chunk (stashed in pending_records), then
  // those buffered mid-transfer. The snapshot was taken before the sender
  // emitted any of them, so blob + both queues is the full history. The
  // shadow's dedupe ledgers survive the install (their seqs are all in
  // blob + queues).
  ShadowHome& shadow = shadows_[primary];
  shadow.home = std::make_unique<gmm::GmmHome>(primary, num_nodes_,
                                               /*coherence=*/false);
  DSE_CHECK_MSG(shadow.home->InstallState(in.blob).ok(),
                "malformed replica state blob");
  // A snapshot streamed by a still-alive draining sender is the planned
  // handoff: adopting this shadow later is lossless by construction, so the
  // adoption counts as recovery.drains instead of recovery.promotions.
  shadow.drain_ready = in.from >= 0 && draining_.count(in.from) > 0;
  std::vector<proto::Envelope> replay = std::move(shadow.pending_records);
  shadow.pending_records.clear();
  replay.insert(replay.end(), std::make_move_iterator(in.buffered.begin()),
                std::make_move_iterator(in.buffered.end()));
  for (const proto::Envelope& rec_env : replay) {
    const auto& rec = std::get<proto::ReplicateReq>(rec_env.body);
    auto inner = proto::Decode(rec.inner);
    DSE_CHECK_MSG(inner.ok(), "malformed buffered replication record");
    Actions shadow_out;
    const bool handled =
        DispatchGmm(*shadow.home, inner.value(), &shadow_out);
    DSE_CHECK_MSG(handled, "non-GMM buffered replication record");
    for (auto& o : shadow_out.out) {
      if (o.env.req_id != 0 && proto::IsClientResponse(o.env.type())) {
        RecordShadowResponse(primary, o.dst, std::move(o.env));
      }
    }
  }
  while (shadow.seen_order.size() > kDedupeWindow) {
    shadow.seen.erase(shadow.seen_order.front());
    shadow.seen_order.pop_front();
  }
  // If the primary's ring slot already routes here (its holder handed the
  // home to us because a membership change moved the slot), serve it.
  bool routed_here = false;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    routed_here =
        !home_map_.IsAlive(primary) && home_map_.Route(primary) == self_;
  }
  if (routed_here) {
    shadow.home->set_coherence(options_.read_cache);
    promoted_[primary] = std::move(shadow.home);
    if (shadow.drain_ready) {
      drains_->Add();
    } else {
      promotions_->Add();
    }
    for (auto& [key, resp] : shadow.completed) {
      if (completed_.emplace(key, std::move(resp)).second) {
        completed_order_.push_back(key);
        replayed_->Add();
      }
    }
    while (completed_order_.size() > kDedupeWindow) {
      completed_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
    shadows_.erase(primary);
  }
}

void KernelCore::HandleStateChunkAck(const proto::Envelope& env,
                                     Actions* actions) {
  const auto& ack = std::get<proto::StateChunkResp>(env.body);
  const auto it = xfer_out_.find(ack.primary);
  if (it == xfer_out_.end()) return;  // superseded transfer
  OutgoingTransfer& xfer = it->second;
  if (env.src_node != xfer.target || ack.index != xfer.next) return;
  xfer.next += 1;
  xfer.stalled = false;
  if (xfer.next < xfer.total) {
    SendChunk(ack.primary, actions);
    return;
  }
  // Transfer complete.
  if (xfer.demote) {
    // Rejoin handoff done: keep the snapshot as the returned primary's
    // shadow — we are its ring successor, so this *is* its new replica.
    ShadowHome& shadow = shadows_[ack.primary];
    shadow.home = std::make_unique<gmm::GmmHome>(ack.primary, num_nodes_,
                                                 /*coherence=*/false);
    DSE_CHECK(shadow.home->InstallState(xfer.blob).ok());
  }
  rereplications_->Add();
  xfer_out_.erase(it);
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
    completed_.emplace(key, out.env);
    completed_order_.push_back(key);
    while (completed_order_.size() > kDedupeWindow) {
      completed_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
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
  put("recovery.draining_nodes", draining_.size());
  put("recovery.epoch", epoch());  // membership epoch (a gauge)

  // Home-side GMM counters; a promoted shadow's activity counts toward the
  // node serving it.
  gmm::GmmHomeStats g = home_.stats();
  for (const auto& [primary, phome] : promoted_) {
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
