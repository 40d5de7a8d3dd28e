#include "dse/recovery/replica.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace dse::recovery {

namespace {

// True for mutating GMM requests a primary forwards to its backup.
bool Mutating(const proto::Envelope& env) {
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

std::uint64_t SeqOf(const proto::Envelope& record) {
  return std::get<proto::ReplicateReq>(record.body).seq;
}

// A coherence-off home reconstructed from a SerializeState() blob.
std::unique_ptr<gmm::GmmHome> HomeFrom(NodeId primary, int num_nodes,
                                       const std::vector<std::uint8_t>& blob) {
  auto home = std::make_unique<gmm::GmmHome>(primary, num_nodes,
                                             /*coherence=*/false);
  DSE_CHECK_MSG(home->InstallState(blob).ok(), "malformed home state blob");
  return home;
}

}  // namespace

Replica::Replica(KernelCore* core)
    : core_(core),
      forwards_(core->metrics().counter("gmm.repl.forwards")),
      promotions_(core->metrics().counter("recovery.promotions")),
      replayed_(core->metrics().counter("recovery.replayed")),
      rereplications_(core->metrics().counter("recovery.rereplications")),
      rejoins_(core->metrics().counter("recovery.rejoins")),
      xfer_chunks_(core->metrics().counter("gmm.xfer.chunks")),
      xfer_bytes_(core->metrics().counter("gmm.xfer.bytes")),
      drains_(core->metrics().counter("recovery.drains")),
      handoff_chunks_(core->metrics().counter("recovery.handoff.chunks")),
      handoff_bytes_(core->metrics().counter("recovery.handoff.bytes")) {}

bool Replica::Handles(proto::MsgType type) {
  switch (type) {
    case proto::MsgType::kReplicateReq:
    case proto::MsgType::kReplicateAck:
    case proto::MsgType::kStateChunkReq:
    case proto::MsgType::kStateChunkResp:
    case proto::MsgType::kNodeJoinReq:
    case proto::MsgType::kNodeJoinResp:
    case proto::MsgType::kDrainReq:
    case proto::MsgType::kDrainResp:
      return true;
    default:
      return false;
  }
}

void Replica::Handle(const proto::Envelope& env, Actions* actions) {
  switch (env.type()) {
    case proto::MsgType::kReplicateReq: return OnRecord(env, actions);
    case proto::MsgType::kReplicateAck: return OnRecordAck(env, actions);
    case proto::MsgType::kStateChunkReq: return OnChunk(env, actions);
    case proto::MsgType::kStateChunkResp: return OnChunkAck(env, actions);
    case proto::MsgType::kNodeJoinReq: return OnJoinReq(env, actions);
    case proto::MsgType::kNodeJoinResp: return OnJoinResp(env, actions);
    case proto::MsgType::kDrainReq: return OnDrainReq(env, actions);
    case proto::MsgType::kDrainResp: return OnDrainResp(env, actions);
    default:
      DSE_CHECK_MSG(false, "non-replica frame in Replica::Handle");
  }
}

gmm::GmmHome* Replica::Promoted(NodeId primary) const {
  const auto it = promoted_.find(primary);
  return it == promoted_.end() ? nullptr : it->second.get();
}

void Replica::Send(NodeId dst, std::uint32_t epoch, proto::Body body,
                   Actions* actions) const {
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = self();
  env.epoch = epoch;
  env.body = std::move(body);
  actions->out.push_back(KernelCore::Outgoing{dst, std::move(env)});
}

// --- Primary side -----------------------------------------------------------

void Replica::Forward(NodeId natural, const proto::Envelope& env,
                      Actions* actions) {
  // Every home this node serves replicates to the node's ring successor:
  // its own home and any promoted ones (Handle bounced every request for a
  // home not served here before dispatch). Records stay keyed by the
  // *natural* primary so the backup's shadows survive holder changes.
  if (!Mutating(env)) return;
  const NodeId backup = core_->Backup();
  if (backup < 0) return;  // last node standing: nothing to replicate to

  proto::ReplicateReq rec;
  rec.primary = natural;
  rec.seq = next_seq_++;
  rec.epoch = core_->epoch();
  rec.inner = proto::Encode(env);
  const std::uint64_t seq = rec.seq;

  PendingRecord pending;
  pending.backup = backup;
  pending.origin = DedupeKey{env.src_node, env.req_id};
  pending.record.req_id = 0;
  pending.record.src_node = self();
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

  actions->out.push_back(KernelCore::Outgoing{backup, pending.record});
  if (env.req_id != 0) gated_[pending.origin] = seq;
  pending_.emplace(seq, std::move(pending));
  forwards_->Add();
}

void Replica::HoldGated(Actions* actions) {
  if (gated_.empty()) return;
  for (auto it = actions->out.begin(); it != actions->out.end();) {
    const proto::Envelope& e = it->env;
    if (e.req_id != 0 && proto::IsClientResponse(e.type())) {
      // A deferred reply (e.g. a write ack completing after its
      // invalidation round) whose origin is still awaiting the backup ack
      // joins the gated set instead of going out.
      const auto g = gated_.find(DedupeKey{it->dst, e.req_id});
      if (g != gated_.end()) {
        pending_.at(g->second).held.push_back(std::move(*it));
        it = actions->out.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void Replica::ResendGatedFor(const DedupeKey& key, Actions* actions) {
  const auto g = gated_.find(key);
  if (g != gated_.end()) {
    const PendingRecord& p = pending_.at(g->second);
    actions->out.push_back(KernelCore::Outgoing{p.backup, p.record});
    return;
  }
  // The retried request may be chasing a reply held behind a *different*
  // origin's record (a LockGrant gated on the unlocker's UnlockReq record).
  for (const auto& [seq, p] : pending_) {
    for (const KernelCore::Outgoing& h : p.held) {
      if (h.dst == key.first && h.env.req_id == key.second) {
        actions->out.push_back(KernelCore::Outgoing{p.backup, p.record});
        return;
      }
    }
  }
}

void Replica::OnRecordAck(const proto::Envelope& env, Actions* actions) {
  const auto& a = std::get<proto::ReplicateAck>(env.body);
  const auto it = pending_.find(a.seq);
  if (it == pending_.end()) return;  // duplicate ack
  for (KernelCore::Outgoing& held : it->second.held) {
    actions->out.push_back(std::move(held));
  }
  gated_.erase(it->second.origin);
  pending_.erase(it);
}

// --- Backup side ------------------------------------------------------------

void Replica::OnRecord(const proto::Envelope& env, Actions* actions) {
  const auto& rec = std::get<proto::ReplicateReq>(env.body);
  Shadow& shadow = shadows_[rec.primary];
  // A retransmission, or a record the installed snapshot already holds:
  // re-ack without re-applying.
  if (shadow.seen.Contains(rec.seq) || shadow.Covers(env.src_node, rec.seq)) {
    Send(env.src_node, 0, proto::ReplicateAck{rec.seq}, actions);
    return;
  }
  // Epoch fence for records: sender and receiver must agree on membership
  // or the shadow could apply a mutation the promoted order never saw.
  // Silently ignored (no ack) — the primary retransmits after both sides
  // converge.
  if (rec.epoch != core_->epoch()) return;
  shadow.seen.Insert(rec.seq);
  const bool transfer_open = xfer_in_.count(rec.primary) > 0;
  if (!shadow.home && !transfer_open && rec.epoch == 0) {
    // Epoch 0: the stream starts with the primary's first-ever mutation, so
    // an empty replica is the correct base.
    shadow.home = std::make_unique<gmm::GmmHome>(
        rec.primary, core_->num_nodes(), /*coherence=*/false);
  }
  if (shadow.home && !transfer_open) {
    Apply(shadow, env);
  } else {
    shadow.queue.push_back(env);
  }
  // Acked either way: the sender may release its gated client replies.
  Send(env.src_node, 0, proto::ReplicateAck{rec.seq}, actions);
}

void Replica::Apply(Shadow& shadow, const proto::Envelope& record) {
  const auto& rec = std::get<proto::ReplicateReq>(record.body);
  auto inner = proto::Decode(rec.inner);
  DSE_CHECK_MSG(inner.ok(), "malformed replication record");
  Actions out;
  DSE_CHECK_MSG(KernelCore::DispatchGmm(*shadow.home, inner.value(), &out),
                "non-GMM replication record");
  // Keep the client responses the shadow would have produced; everything
  // else it emits (e.g. invalidations — coherence is off) is discarded.
  for (auto& o : out.out) Keep(shadow, o.dst, std::move(o.env));
}

void Replica::Keep(Shadow& shadow, NodeId dst, proto::Envelope response) {
  if (response.req_id == 0 || !proto::IsClientResponse(response.type())) {
    return;
  }
  response.src_node = self();  // after promotion, this node answers retries
  // Stamped with the epoch at record time. Promotion always bumps the
  // epoch, so a replay of this response never matches the receiver's
  // current epoch — its block data answers the waiting call but is never
  // cached, because the promoted home's copyset has no record of the reader.
  response.epoch = core_->epoch();
  const DedupeKey key{dst, response.req_id};
  shadow.completed.Insert(key, std::move(response));
}

void Replica::Seed(NodeId primary, Shadow& shadow,
                   const std::vector<std::uint8_t>& blob, NodeId from,
                   std::uint64_t next_seq) {
  shadow.home = HomeFrom(primary, core_->num_nodes(), blob);
  shadow.base_from = from;
  shadow.base_seq = next_seq;
  for (const proto::Envelope& record : shadow.queue) {
    if (!shadow.Covers(record.src_node, SeqOf(record))) Apply(shadow, record);
  }
  shadow.queue.clear();
}

void Replica::Promote(NodeId primary) {
  const auto it = shadows_.find(primary);
  Shadow& shadow = it->second;
  shadow.home->set_coherence(core_->read_cache_enabled());
  promoted_[primary] = std::move(shadow.home);
  // A drain-seeded shadow's adoption is the planned cutover, not a
  // failover: it is complete by construction (snapshot + every record
  // forwarded since), so it counts under recovery.drains.
  (shadow.drain_ready ? drains_ : promotions_)->Add();
  // The responses the shadow produced seed the at-most-once cache, so
  // in-flight retries replay original outcomes instead of re-executing.
  shadow.completed.DrainTo([this](const DedupeKey& key, proto::Envelope&& r) {
    if (core_->completed_.Insert(key, std::move(r))) replayed_->Add();
  });
  shadows_.erase(it);
}

// --- State transfer ---------------------------------------------------------

void Replica::StartTransfer(NodeId primary, NodeId target, bool demote,
                            Actions* actions) {
  if (target == self() || target < 0) return;
  gmm::GmmHome* source = core_->ServingHome(primary);
  if (source == nullptr) return;
  if (source->pending_block_count() > 0) {
    // Mid-invalidation-round homes cannot snapshot; retry from the tick
    // once the round drains.
    for (const DeferredTransfer& d : xfer_deferred_) {
      if (d.primary == primary) return;  // already queued
    }
    xfer_deferred_.push_back(DeferredTransfer{primary, target, demote});
    return;
  }
  OutgoingTransfer xfer;
  xfer.target = target;
  xfer.epoch = core_->epoch();
  // Every record forwarded from here on postdates the snapshot.
  xfer.next_seq = next_seq_;
  xfer.blob = source->SerializeState();
  xfer.total = static_cast<std::uint32_t>(std::max<std::size_t>(
      1, (xfer.blob.size() + kStateChunkBytes - 1) / kStateChunkBytes));
  xfer.demote = demote;
  if (demote) {
    // Rejoin handback: stop serving immediately — the returned owner is the
    // primary again; requests bounce until it has the state installed.
    promoted_.erase(primary);
  }
  xfer_out_[primary] = std::move(xfer);
  SendChunk(primary, actions);
}

void Replica::SendChunk(NodeId primary, Actions* actions) {
  const OutgoingTransfer& xfer = xfer_out_.at(primary);
  proto::StateChunkReq chunk;
  chunk.primary = primary;
  chunk.epoch = xfer.epoch;
  chunk.index = xfer.next;
  chunk.total = xfer.total;
  chunk.next_seq = xfer.next_seq;
  const std::size_t begin = xfer.next * kStateChunkBytes;
  const std::size_t end = std::min(begin + kStateChunkBytes, xfer.blob.size());
  if (begin < end) {
    chunk.data.assign(xfer.blob.begin() + begin, xfer.blob.begin() + end);
  }
  xfer_chunks_->Add();
  xfer_bytes_->Add(chunk.data.size());
  // A draining node's streams to its backup are the planned handoff.
  if (!xfer.demote && Draining(self())) {
    handoff_chunks_->Add();
    handoff_bytes_->Add(chunk.data.size());
  }
  Send(xfer.target, xfer.epoch, std::move(chunk), actions);
}

void Replica::OnChunk(const proto::Envelope& env, Actions* actions) {
  const auto& chunk = std::get<proto::StateChunkReq>(env.body);
  const NodeId primary = chunk.primary;
  if (primary < 0 || primary >= core_->num_nodes()) return;
  const bool own = primary == self();
  if (own && !own_home_pending_) return;  // stale handback replay
  // Epoch fence — except for our own rejoin handback, which may outrun the
  // NodeJoinResp that would teach us the new epoch (different links).
  if (!own && chunk.epoch != core_->epoch()) return;
  const auto ack = [&] {
    Send(env.src_node, 0, proto::StateChunkResp{primary, chunk.index},
         actions);
  };
  auto it = xfer_in_.find(primary);
  if (it == xfer_in_.end()) {
    // A resent chunk of a transfer that already installed: re-ack it
    // without re-opening the transfer, or the stale snapshot would roll
    // back every record applied since the install.
    const auto done = installed_.find(primary);
    if (done != installed_.end() && done->second == chunk.epoch) {
      ack();
      return;
    }
  }
  if (chunk.index == 0) {
    if (it != xfer_in_.end() && it->second.epoch == chunk.epoch) {
      ack();  // duplicate first chunk: already absorbed
      return;
    }
    // A new transfer, or one restarted under a bumped epoch. The records
    // queued behind the superseded one stay queued: the new snapshot's
    // watermark sorts out which of them it already holds.
    IncomingTransfer in;
    in.epoch = chunk.epoch;
    in.total = chunk.total;
    in.from = env.src_node;
    in.next_seq = chunk.next_seq;
    it = xfer_in_.insert_or_assign(primary, std::move(in)).first;
  } else {
    if (it == xfer_in_.end()) return;  // stray chunk, no active transfer
    const IncomingTransfer& in = it->second;
    if (in.epoch != chunk.epoch || chunk.total != in.total) {
      return;  // chunk of a superseded transfer
    }
    if (chunk.index < in.received) {
      ack();  // duplicate: re-ack, already absorbed
      return;
    }
    if (chunk.index > in.received) {
      return;  // gap (cannot happen on a FIFO link): sender resends
    }
  }
  IncomingTransfer& in = it->second;
  in.blob.insert(in.blob.end(), chunk.data.begin(), chunk.data.end());
  in.received += 1;
  ack();
  if (in.received == in.total) Install(primary);
}

void Replica::Install(NodeId primary) {
  auto node = xfer_in_.extract(primary);
  const IncomingTransfer& in = node.mapped();
  installed_[primary] = in.epoch;
  if (primary == self()) {
    // Rejoin handback: the cluster handed our home back — install, serve.
    DSE_CHECK_MSG(core_->home_.InstallState(in.blob).ok(),
                  "malformed rejoin state blob");
    own_home_pending_ = false;
    return;
  }
  Shadow& shadow = shadows_[primary];
  // A snapshot streamed by a still-alive draining sender is the planned
  // handoff.
  shadow.drain_ready = in.from >= 0 && Draining(in.from);
  Seed(primary, shadow, in.blob, in.from, in.next_seq);
  // If the primary's ring slot already routes here (its holder handed the
  // home to us because a membership change moved the slot), serve it.
  if (core_->RoutedHere(primary)) Promote(primary);
}

void Replica::OnChunkAck(const proto::Envelope& env, Actions* actions) {
  const auto& ack = std::get<proto::StateChunkResp>(env.body);
  const auto it = xfer_out_.find(ack.primary);
  if (it == xfer_out_.end()) return;  // superseded transfer
  OutgoingTransfer& xfer = it->second;
  if (env.src_node != xfer.target || ack.index != xfer.next) return;
  xfer.next += 1;
  xfer.idle_ticks = 0;
  xfer.wait = kChunkResendTicks;
  if (xfer.next < xfer.total) {
    SendChunk(ack.primary, actions);
    return;
  }
  // Transfer complete. A rejoin handback keeps the snapshot as the returned
  // primary's shadow — we are its ring successor, so this *is* its new
  // replica.
  if (xfer.demote) {
    Seed(ack.primary, shadows_[ack.primary], xfer.blob, -1, 0);
  }
  rereplications_->Add();
  xfer_out_.erase(it);
}

void Replica::Tick(Actions* actions) {
  // Retry deferred starts whose serving home has drained its rounds
  // (StartTransfer re-defers the ones that have not).
  std::vector<DeferredTransfer> ready;
  ready.swap(xfer_deferred_);
  for (const DeferredTransfer& d : ready) {
    StartTransfer(d.primary, d.target, d.demote, actions);
  }
  // Resend the in-flight chunk of every transfer that sat unacked past its
  // backoff (lost chunk or lost ack: receivers re-ack duplicates, so this is
  // idempotent); each resend doubles the next wait.
  for (auto& [primary, xfer] : xfer_out_) {
    if (++xfer.idle_ticks <= xfer.wait) continue;
    SendChunk(primary, actions);
    xfer.idle_ticks = 0;
    xfer.wait = std::min(2 * xfer.wait, kMaxChunkResendTicks);
  }
  // Draining, fully handed off, and hosting no resident tasks: report
  // cutover readiness to the coordinator. Re-sent every tick (the one-way
  // frame may be lost); the coordinator's drain_ready_ insert is
  // idempotent. The resident-task gate mirrors the scheduler quiesce on
  // the cutover side: a drain waits out everything still running here —
  // cutting over under a live task would zombify it (unlike a kill, a
  // drain drops no frames, so the zombie's completion would later hit a
  // process table that no longer knows it).
  if (Draining(self()) && idle() && core_->processes_.running_count() == 0) {
    const NodeId coord = core_->CoordinatorView();
    const std::uint32_t e = core_->epoch();
    if (coord == self()) {
      drain_ready_.insert(self());  // coordinator draining itself
    } else if (coord >= 0) {
      Send(coord, e, proto::DrainResp{self(), e}, actions);
    }
  }
}

// --- Membership side effects -------------------------------------------------

void Replica::OnEvicted(NodeId dead, bool first_change, NodeId old_backup,
                        Actions* actions) {
  // Replies gated on an ack from the dead backup can never be released by
  // it. Release them now: the mutation executed exactly once here and there
  // is no surviving replica to keep consistent.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.backup != dead) {
      ++it;
      continue;
    }
    for (KernelCore::Outgoing& held : it->second.held) {
      actions->out.push_back(std::move(held));
    }
    gated_.erase(it->second.origin);
    it = pending_.erase(it);
  }
  // A transfer in flight FROM the dead node dies with it. When it was
  // re-seeding a replica this node already holds (a drain handoff cut short
  // by the source's death), the records queued during the copy exist
  // nowhere else: replay them onto that shadow now, before the promotion
  // below. With no prior base the queued records are useless (the standard
  // double-fault window) and are dropped.
  for (auto it = xfer_in_.begin(); it != xfer_in_.end();) {
    if (it->second.from != dead) {
      ++it;
      continue;
    }
    if (const auto sit = shadows_.find(it->first); sit != shadows_.end()) {
      Shadow& shadow = sit->second;
      if (shadow.home) {
        for (const proto::Envelope& record : shadow.queue) {
          Apply(shadow, record);
        }
      }
      shadow.queue.clear();
    }
    it = xfer_in_.erase(it);
  }

  // We were handing a home back to `dead` (it rejoined and died again
  // before the handback finished): resume serving it from the snapshot.
  if (const auto hit = xfer_out_.find(dead); hit != xfer_out_.end() &&
                                             hit->second.demote &&
                                             hit->second.target == dead) {
    promoted_[dead] = HomeFrom(dead, core_->num_nodes(), hit->second.blob);
    promoted_[dead]->set_coherence(core_->read_cache_enabled());
    xfer_out_.erase(hit);
  }

  // Promote our shadow of every dead primary whose ring slot now routes
  // here (normally just `dead`; after cascaded failures possibly a home it
  // was serving for an earlier victim, re-replicated to us in between).
  std::set<NodeId> promoted_now;
  for (NodeId p = 0; p < core_->num_nodes(); ++p) {
    if (p == self() || promoted_.count(p) > 0 || !core_->RoutedHere(p)) {
      continue;
    }
    auto sit = shadows_.find(p);
    if (sit == shadows_.end() && first_change) {
      // Not one replication record ever arrived for p. Before the first
      // membership change this node has been p's ring backup since boot,
      // so that absence is PROOF the home never acked a mutation (every
      // acked reply is gated on this backup's record ack): an empty home
      // IS its exact state, and promoting one loses nothing — unacked
      // in-flight writes re-drive against it through the normal retry
      // path. Past the first epoch the same absence can mean an
      // interrupted re-replication chain (the double-fault window), so
      // the home stays unavailable rather than silently serving zeros.
      sit = shadows_.emplace(p, Shadow{}).first;
      sit->second.home = std::make_unique<gmm::GmmHome>(
          p, core_->num_nodes(), /*coherence=*/false);
    }
    if (sit == shadows_.end()) continue;  // no replica: home unavailable
    if (sit->second.home) {
      Promote(p);
      promoted_now.insert(p);
    } else {
      shadows_.erase(sit);
    }
  }

  // Sever the dead node from every home this node serves or mirrors: locks
  // it held release, its queued waits drop, parked barriers discount it,
  // and invalidation rounds stop waiting for its ack. Shadow emissions are
  // kept, not sent: the primary runs the same eviction and sends its own.
  for (auto& [primary, home] : promoted_) {
    for (auto& r : home->EvictNode(dead)) {
      actions->out.push_back(KernelCore::Outgoing{r.dst, std::move(r.env)});
    }
  }
  for (auto& [primary, shadow] : shadows_) {
    if (!shadow.home) continue;
    for (auto& r : shadow.home->EvictNode(dead)) {
      Keep(shadow, r.dst, std::move(r.env));
    }
  }
  shadows_.erase(dead);  // a shadow routed to another survivor is stale

  AfterViewChange(dead, old_backup, std::move(promoted_now), actions);
}

void Replica::AfterViewChange(NodeId node, NodeId old_backup,
                              std::set<NodeId> stream, Actions* actions) {
  // The epoch moved: records still awaiting a surviving backup's ack carry
  // the old stamp, which the backup's record fence would drop forever.
  // Re-stamp them — the mutation order at this primary is unaffected by the
  // membership change, so each is as valid under the new view as the old.
  const std::uint32_t epoch = core_->epoch();
  for (auto& [seq, p] : pending_) {
    p.record.epoch = epoch;
    std::get<proto::ReplicateReq>(p.record.body).epoch = epoch;
  }
  // Routes changed: every cached block whose home moved would be
  // stale-routed, so drop the whole client cache (it refills).
  core_->DropCache();
  // The change completes (eviction) or starts over (admission) any drain of
  // `node`.
  draining_.erase(node);
  drain_ready_.erase(node);

  // Re-replication (docs/recovery.md): restore f = 1 for every home whose
  // replica the change invalidated. In-flight transfers re-snapshot under
  // the new epoch (the receiver's fence drops their stale-stamped chunks);
  // a changed ring successor has none of our history.
  const NodeId backup = core_->Backup();
  if (backup < 0) return;
  for (const auto& [p, xfer] : xfer_out_) {
    if (!xfer.demote) stream.insert(p);
  }
  if (backup != old_backup) {
    if (!own_home_pending_) stream.insert(self());
    for (const auto& [p, home] : promoted_) stream.insert(p);
  }
  for (const NodeId p : stream) {
    StartTransfer(p, backup, /*demote=*/false, actions);
  }
}

void Replica::Reset() {
  next_seq_ = 1;
  pending_.clear();
  gated_.clear();
  shadows_.clear();
  promoted_.clear();
  xfer_out_.clear();
  xfer_deferred_.clear();
  xfer_in_.clear();
  installed_.clear();
  draining_.clear();
  drain_ready_.clear();
  own_home_pending_ = true;
}

void Replica::OnJoinReq(const proto::Envelope& env, Actions* actions) {
  const NodeId node = std::get<proto::NodeJoinReq>(env.body).node;
  if (!core_->rejoin_enabled()) return;
  if (node < 0 || node >= core_->num_nodes() || node == self()) return;
  const std::uint32_t epoch = core_->epoch();
  const auto admission = [&](NodeId dst, std::uint32_t e) {
    Send(dst, e, proto::NodeJoinResp{node, e, core_->AliveBitmap()}, actions);
  };
  if (core_->NodeAlive(node)) {
    // Duplicate join (our broadcast raced the retry): re-send the
    // admission to the joiner only.
    admission(node, epoch);
    return;
  }
  if (core_->CoordinatorView() != self()) return;  // joiner retries elsewhere
  const NodeId old_backup = core_->Backup();
  if (!core_->Admit(node, epoch + 1)) return;
  rejoins_->Add();
  // Tell everyone — including the joiner, whose view is stale — then run
  // our own admission side effects.
  for (NodeId n = 0; n < core_->num_nodes(); ++n) {
    if (n != self() && core_->NodeAlive(n)) admission(n, epoch + 1);
  }
  OnAdmitted(node, old_backup, actions);
}

void Replica::OnJoinResp(const proto::Envelope& env, Actions* actions) {
  const auto& resp = std::get<proto::NodeJoinResp>(env.body);
  const NodeId node = resp.node;
  if (node < 0 || node >= core_->num_nodes()) return;
  if (node == self()) {
    // Our own admission: install the coordinator's full membership view.
    core_->InstallView(resp.alive, resp.epoch);
    return;
  }
  if (core_->NodeAlive(node)) return;  // duplicate broadcast
  const NodeId old_backup = core_->Backup();
  if (!core_->Admit(node, resp.epoch)) return;
  OnAdmitted(node, old_backup, actions);
}

void Replica::OnAdmitted(NodeId node, NodeId old_backup, Actions* actions) {
  // A shadow of the returned node's home mirrors its previous holder's
  // serving copy; the handback re-seeds replication from scratch.
  shadows_.erase(node);
  xfer_in_.erase(node);
  // Hand every home whose slot now routes to the joiner back to it: its
  // own, if we held it, and any other dead node's slot the joiner sits in
  // front of — it promotes those on arrival. We are the joiner's ring
  // successor again, so each snapshot stays here as the home's shadow.
  std::vector<NodeId> moved;
  for (const auto& [p, home] : promoted_) {
    if (core_->RouteOf(p) != self()) moved.push_back(p);
  }
  for (const NodeId p : moved) {
    StartTransfer(p, node, /*demote=*/true, actions);
  }
  // Serving front door: the rejoined node's slots are schedulable again.
  if (core_->sched_) {
    core_->ApplyStarts(core_->sched_->OnNodeAlive(node), actions);
  }
  AfterViewChange(node, old_backup, {}, actions);
}

// --- Planned drain ------------------------------------------------------------

void Replica::OnDrainReq(const proto::Envelope& env, Actions* actions) {
  const NodeId node = std::get<proto::DrainReq>(env.body).node;
  if (node < 0 || node >= core_->num_nodes()) return;
  if (!core_->NodeAlive(node)) return;          // already evicted: stale
  if (!draining_.insert(node).second) return;   // duplicate broadcast
  // The scheduler node stops placing new gang members there; running ones
  // are waited out (counted under sched.drained_jobs), never shed.
  if (core_->sched_) core_->sched_->OnNodeDraining(node);
  if (node == self()) StartDrainHandoff(actions);
  if (core_->CoordinatorView() == self()) {
    actions->console.push_back("[drain] node " + std::to_string(node) +
                               " draining: handoff started");
  }
}

void Replica::OnDrainResp(const proto::Envelope& env, Actions* actions) {
  const auto& resp = std::get<proto::DrainResp>(env.body);
  const NodeId node = resp.node;
  if (node < 0 || node >= core_->num_nodes()) return;
  // A stale epoch means a real failover interleaved with the drain; the
  // readiness claim no longer describes the current membership.
  if (resp.epoch != core_->epoch() || !Draining(node)) return;
  if (drain_ready_.insert(node).second) {
    actions->console.push_back("[drain] node " + std::to_string(node) +
                               " handoff complete: ready for cutover");
  }
}

void Replica::StartDrainHandoff(Actions* actions) {
  const NodeId backup = core_->Backup();
  if (backup < 0) {
    draining_.erase(self());  // last node standing: nowhere to hand off
    return;
  }
  // A home already streaming (or queued to stream) to the backup is part of
  // the handoff as it stands: a same-epoch restart would trip the
  // receiver's duplicate-chunk-0 detection and wedge the handoff.
  const auto start = [&](NodeId p) {
    if (const auto it = xfer_out_.find(p); it != xfer_out_.end() &&
                                           it->second.target == backup &&
                                           !it->second.demote) {
      return;
    }
    for (const DeferredTransfer& d : xfer_deferred_) {
      if (d.primary == p && d.target == backup && !d.demote) return;
    }
    StartTransfer(p, backup, /*demote=*/false, actions);
  };
  if (!own_home_pending_) start(self());
  for (const auto& [p, home] : promoted_) start(p);
}

}  // namespace dse::recovery
