#include "dse/recovery/membership.h"

#include <string>
#include <utility>

#include "common/log.h"

namespace dse::recovery {

namespace {

void Append(KernelCore::Actions from, KernelCore::Actions* into) {
  for (auto& o : from.out) into->out.push_back(std::move(o));
  for (auto& s : from.start) into->start.push_back(std::move(s));
  for (auto& c : from.console) into->console.push_back(std::move(c));
}

}  // namespace

MembershipAgent::MembershipAgent(KernelCore* core, Options options)
    : core_(core),
      options_(std::move(options)),
      suspected_(static_cast<size_t>(core->num_nodes())),
      heard_epoch_(static_cast<size_t>(core->num_nodes())),
      drain_initiated_(static_cast<size_t>(core->num_nodes())),
      nodes_dead_(core->metrics().counter("node.dead")) {}

std::unique_lock<std::mutex> MembershipAgent::LockCore() const {
  return options_.core_mu != nullptr
             ? std::unique_lock<std::mutex>(*options_.core_mu)
             : std::unique_lock<std::mutex>();
}

bool MembershipAgent::Suspected(NodeId peer) const {
  if (peer < 0 || peer >= num_nodes()) return false;
  return suspected_[static_cast<size_t>(peer)].load(std::memory_order_relaxed);
}

void MembershipAgent::Send(NodeId dst, proto::Body body,
                           Actions* actions) const {
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = self();
  env.epoch = core_->epoch();
  env.body = std::move(body);
  actions->out.push_back(KernelCore::Outgoing{dst, std::move(env)});
}

void MembershipAgent::Latch(NodeId node, const char* why) {
  if (!ValidPeer(node)) return;
  if (suspected_[static_cast<size_t>(node)].exchange(
          true, std::memory_order_relaxed)) {
    return;
  }
  nodes_dead_->Add();
  DSE_LOG(kWarn) << "node " << self() << ": declaring node " << node
                 << " dead (" << why << ")";
  if (options_.on_suspect) options_.on_suspect(node);
}

void MembershipAgent::Evict(NodeId node, std::uint32_t epoch, const char* why,
                            Actions* actions) {
  if (!ValidPeer(node)) return;
  Latch(node, why);
  if (!core_->replication_on() || !core_->NodeAlive(node)) return;
  // Quorum guard: a locally detected eviction needs a reachable strict
  // majority (or --min-quorum), counting every current member we do not
  // suspect, ourselves included. Below the bar we park: the suspicion stays
  // latched, calls fail over and retry, and no membership change happens
  // until the partition heals or a quorum-held eviction reaches us by
  // gossip (epoch != 0 — proof a quorum-holding coordinator committed it).
  if (epoch == 0) {
    // Only the acting coordinator — the lowest member not suspected here —
    // commits a locally detected eviction; everyone else keeps the latch
    // and waits for its EvictReq. Two nodes that lose only the link between
    // them would otherwise evict each other under the same epoch, and no
    // gossip can reconcile two views that carry equal epochs.
    for (NodeId n = 0; n < self(); ++n) {
      if (core_->NodeAlive(n) && !Suspected(n)) return;
    }
    int reachable = 0;
    for (NodeId n = 0; n < num_nodes(); ++n) {
      if (core_->NodeAlive(n) && !Suspected(n)) ++reachable;
    }
    if (reachable < core_->QuorumRequired()) {
      if (!parked_.exchange(true, std::memory_order_relaxed)) {
        core_->NoteQuorumPark();
        DSE_LOG(kWarn) << "node " << self() << ": quorum park — only "
                       << reachable << " member(s) reachable, need "
                       << core_->QuorumRequired();
      }
      return;
    }
    parked_.store(false, std::memory_order_relaxed);
  }
  const std::uint32_t new_epoch = epoch != 0 ? epoch : core_->epoch() + 1;
  Actions applied;
  {
    const auto lock = LockCore();
    applied = core_->ApplyEviction(node, new_epoch);
  }
  // The coordinator announces — ahead of the eviction's own follow-ups, so
  // survivors reach the new epoch before its re-replication chunks arrive
  // and their epoch fence drops none. Everyone else applied it from a
  // received EvictReq or gossip and stays quiet.
  if (core_->CoordinatorView() == self()) {
    for (NodeId n = 0; n < num_nodes(); ++n) {
      if (n == self() || !core_->NodeAlive(n)) continue;
      Send(n, proto::EvictReq{node, new_epoch}, actions);
    }
  }
  Append(std::move(applied), actions);
}

KernelCore::Actions MembershipAgent::Tick(std::int64_t now_ms) {
  Actions actions;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self()) continue;
    const bool silent = options_.silent(n, now_ms);
    if (!Suspected(n)) {
      if (silent) Latch(n, "silent");
    } else if (!silent && core_->replication_on() && core_->NodeAlive(n)) {
      // The detector no longer confirms a suspected member: the partition
      // healed (an evicted peer instead comes back through admission).
      suspected_[static_cast<size_t>(n)].store(false,
                                               std::memory_order_relaxed);
      parked_.store(false, std::memory_order_relaxed);
    }
  }
  const auto coordinator = [this] {
    return core_->replication_on() && core_->CoordinatorView() == self();
  };
  // Standing evictions first, so a fresh one is announced once this tick.
  if (coordinator()) ReAnnounce(&actions);
  // Every suspected member is a candidate every tick, not just the newly
  // silent: a quorum can return (a heal lifts other suspicions), this node
  // can become the acting coordinator (the old one fell silent), and a
  // re-admitted node can die before it was ever heard again. All of them
  // latched before any is acted on: a partition severs several links at
  // once, and evicting the first while the others still look reachable
  // would let a minority pass the quorum check.
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (Suspected(n) && core_->NodeAlive(n)) Evict(n, 0, "silent", &actions);
  }
  if (!core_->replication_on()) return actions;
  if (coordinator()) DrainDuties(&actions);
  // Membership frames arrived since the last tick: report the epoch they
  // brought us to, so the coordinator stops re-announcing them here (the
  // simulator has no heartbeat to carry it).
  if (report_epoch_.exchange(false, std::memory_order_relaxed) &&
      !coordinator()) {
    Send(core_->CoordinatorView(), proto::Heartbeat{}, &actions);
  }
  const auto lock = LockCore();
  Append(core_->TickTransfers(), &actions);
  return actions;
}

void MembershipAgent::ReAnnounce(Actions* actions) {
  const std::uint32_t epoch = core_->epoch();
  const NodeId admitted = core_->LastAdmitted();
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self()) continue;
    const bool lagging =
        core_->NodeAlive(n) &&
        heard_epoch_[static_cast<size_t>(n)].load(std::memory_order_relaxed) <
            epoch;
    // The latest admission first: applied under the current epoch it lets
    // the evictions below land without a bump, and a joiner that lost its
    // own NodeJoinResp installs the view from it.
    if (lagging && admitted >= 0) {
      Send(n, proto::NodeJoinResp{admitted, epoch, core_->AliveBitmap()},
           actions);
    }
    for (NodeId d = 0; d < num_nodes(); ++d) {
      if (core_->NodeAlive(d)) continue;
      // With rejoin on, the evicted node hears it too: a restarted or
      // healed node learns it was evicted and asks for re-admission.
      if (lagging || (n == d && core_->rejoin_enabled())) {
        Send(n, proto::EvictReq{d, epoch}, actions);
      }
    }
  }
}

void MembershipAgent::DrainDuties(Actions* actions) {
  for (NodeId d = 0; d < num_nodes(); ++d) {
    if (d == self() || !core_->NodeAlive(d)) continue;
    bool draining = false;
    bool ready = false;
    {
      const auto lock = LockCore();
      draining = core_->NodeDraining(d);
      ready = core_->DrainCutoverReady(d);
    }
    if (ready) {
      // The planned, lossless eviction; the node rejoins on the re-announce.
      Evict(d, core_->epoch() + 1, "drain cutover", actions);
    } else if (!draining && options_.drain_requested &&
               options_.drain_requested(d) &&
               !drain_initiated_[static_cast<size_t>(d)].exchange(
                   true, std::memory_order_relaxed)) {
      Append(AdminDrain(d), actions);
    }
  }
}

bool MembershipAgent::OnFrame(const proto::Envelope& env, Actions* actions) {
  const NodeId src = env.src_node;
  if (src >= 0 && src < num_nodes() && src != self()) {
    const auto si = static_cast<size_t>(src);
    // Frames from one peer arrive on several threads (the service loop, and
    // whichever thread delivers a response), so raise the stamp by CAS max.
    std::uint32_t heard = heard_epoch_[si].load(std::memory_order_relaxed);
    while (env.epoch > heard &&
           !heard_epoch_[si].compare_exchange_weak(
               heard, env.epoch, std::memory_order_relaxed)) {
    }
    // A frame from a suspected peer that is still a member revokes the
    // suspicion — a quorum-parked side of a partition resumes this way.
    if (suspected_[si].load(std::memory_order_relaxed) &&
        core_->replication_on() && core_->NodeAlive(src)) {
      suspected_[si].store(false, std::memory_order_relaxed);
      parked_.store(false, std::memory_order_relaxed);
      DSE_LOG(kWarn) << "node " << self() << ": suspicion of node " << src
                     << " revoked (frame received)";
    }
  }

  if (env.type() == proto::MsgType::kHeartbeat) return true;
  if (env.type() == proto::MsgType::kEvictReq ||
      env.type() == proto::MsgType::kNodeJoinResp) {
    report_epoch_.store(true, std::memory_order_relaxed);
  }

  if (const auto* e = std::get_if<proto::EvictReq>(&env.body)) {
    if (e->node == self() && core_->replication_on() &&
        core_->rejoin_enabled()) {
      // A copy older than our view is a stale re-announce from before our
      // admission: acting on it would wipe a serving member.
      if (e->epoch < core_->epoch()) return true;
      // The cluster evicted *us*: wipe the state it has moved past (once
      // per episode) and ask the announcer for re-admission on every
      // re-announce.
      if (!joining_.exchange(true, std::memory_order_relaxed)) {
        const auto lock = LockCore();
        Append(core_->ResetForRejoin(), actions);
      }
      Send(src, proto::NodeJoinReq{self()}, actions);
      return true;
    }
    Evict(e->node, e->epoch, "evicted by coordinator", actions);
    return true;
  }

  if (const auto* jr = std::get_if<proto::NodeJoinResp>(&env.body)) {
    // Clear the latches the admission obsoletes; KernelCore::Handle then
    // applies the membership change itself.
    const auto clear = [this](NodeId n) {
      if (!ValidPeer(n)) return;
      suspected_[static_cast<size_t>(n)].store(false,
                                               std::memory_order_relaxed);
      if (options_.on_clear) options_.on_clear(n);
    };
    if (jr->node == self()) {
      // Only the admission that ends our rejoin installs a view. Any other
      // copy — a duplicate, or the coordinator's repair of a member that
      // missed a later change — is dropped: installing its bitmap would
      // skip the side effects (promotions, hand-backs) of those changes,
      // which the EvictReq/NodeJoinResp repairs behind it apply properly.
      if (!joining_.load(std::memory_order_relaxed) ||
          jr->epoch <= core_->epoch()) {
        return true;
      }
      joining_.store(false, std::memory_order_relaxed);
      parked_.store(false, std::memory_order_relaxed);
      for (size_t i = 0; i < jr->alive.size(); ++i) {
        if (jr->alive[i] != 0) clear(static_cast<NodeId>(i));
      }
    } else {
      clear(jr->node);
    }
  }
  return false;
}

KernelCore::Actions MembershipAgent::OnBounce(NodeId responder,
                                              const proto::RetryResp& rr) {
  Actions actions;
  const std::uint32_t local = core_->epoch();
  if (rr.epoch > local && rr.evicted >= 0) {
    // The responder is ahead: adopt its eviction without waiting for our
    // own detector or the coordinator's broadcast.
    Evict(rr.evicted, rr.epoch, "epoch gossip", &actions);
  } else if (rr.epoch < local && core_->LastEvicted() >= 0) {
    // The responder lags (it missed the EvictReq): push-repair it.
    Send(responder, proto::EvictReq{core_->LastEvicted(), local}, &actions);
  }
  return actions;
}

KernelCore::Actions MembershipAgent::AdminDrain(NodeId node) {
  Actions actions;
  if (!core_->replication_on()) return actions;
  if (node < 0 || node >= num_nodes() || !core_->NodeAlive(node)) {
    return actions;
  }
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = self();
  env.epoch = core_->epoch();
  env.body = proto::DrainReq{node, core_->epoch()};
  // Apply locally first (marks the node draining; the scheduler here stops
  // placing on it), then broadcast so every member — the target included —
  // converges on the same view.
  {
    const auto lock = LockCore();
    actions = core_->Handle(env);
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self() || !core_->NodeAlive(n)) continue;
    actions.out.push_back(KernelCore::Outgoing{n, env});
  }
  return actions;
}

}  // namespace dse::recovery
