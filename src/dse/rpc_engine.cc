#include "dse/rpc_engine.h"

#include <algorithm>
#include <string>

#include "dse/recovery/recovery.h"

namespace dse {

Result<proto::Envelope> RpcEngine::Call(NodeId dst, proto::Body body,
                                        const CallPolicy& policy) {
  std::vector<std::pair<NodeId, proto::Body>> one;
  one.emplace_back(dst, std::move(body));
  auto resps = CallMany(std::move(one), policy);
  if (!resps.ok()) return resps.status();
  return std::move((*resps)[0]);
}

Result<std::vector<proto::Envelope>> RpcEngine::CallMany(
    std::vector<std::pair<NodeId, proto::Body>> calls,
    const CallPolicy& policy) {
  std::vector<Slot> slots(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    slots[i].dst = calls[i].first;
    slots[i].env.req_id = transport_->NextReqId();
    slots[i].env.src_node = core_->self();
    slots[i].env.body = std::move(calls[i].second);
  }
  Status status = Status::Ok();
  for (Slot& s : slots) {
    status = SendSlot(s, /*failover=*/false);
    if (!status.ok()) break;
  }
  if (status.ok()) status = Collect(slots, policy);
  // Nothing of this call stays registered once it returns, so a late reply
  // is counted (rpc.stale_resp in the mailbox, rpc.orphan_resp at the
  // service loop) instead of answering a later call. A slot answered on its
  // only send was unregistered by that delivery; every resend registers
  // again.
  for (const Slot& s : slots) {
    const bool resent = s.attempts > 1 || s.failovers > 0;
    if (!s.done || resent) transport_->Unregister(s.env.req_id);
  }
  if (!status.ok()) return status;
  std::vector<proto::Envelope> out;
  out.reserve(slots.size());
  for (Slot& s : slots) out.push_back(std::move(s.resp));
  return out;
}

Status RpcEngine::Post(NodeId dst, proto::Body body) {
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = core_->self();
  env.body = std::move(body);
  if (core_->replication_on()) {
    env.epoch = core_->epoch();
    dst = core_->RouteOf(dst);
  }
  return transport_->Send(dst, env);
}

bool RpcEngine::CanFailOver(const Slot& s) const {
  // Failovers do not consume the policy's attempts (the call is waiting out
  // an eviction, not the network) but stay bounded, so a cluster that never
  // converges still surfaces an error.
  return core_->replication_on() && s.failovers < recovery::kMaxFailovers;
}

std::int64_t RpcEngine::AttemptDeadline(const CallPolicy& policy) {
  if (policy.deadline_ms <= 0) return RpcTransport::kNoDeadline;
  return transport_->NowNs() +
         static_cast<std::int64_t>(policy.deadline_ms) * 1000000;
}

Status RpcEngine::SendSlot(Slot& s, bool failover) {
  for (;;) {
    // Evictions propagate at heartbeat cadence; resending full speed would
    // only bounce again.
    if (failover) transport_->Pause(recovery::kFailoverPauseMs);
    NodeId routed = s.dst;
    if (core_->replication_on()) {
      s.env.epoch = core_->epoch();
      routed = core_->RouteOf(s.dst);
    }
    transport_->Register(s.env.req_id, routed);
    const Status sent = transport_->Send(routed, s.env);
    if (sent.ok() || sent.code() != ErrorCode::kUnavailable ||
        !CanFailOver(s)) {
      return sent;
    }
    // Dead destination whose eviction has not been applied yet.
    ++s.failovers;
    failover = true;
  }
}

Status RpcEngine::Collect(std::vector<Slot>& slots, const CallPolicy& policy) {
  const int max_attempts = std::max(1, policy.max_attempts);
  size_t remaining = slots.size();
  std::int64_t deadline = AttemptDeadline(policy);
  while (remaining > 0) {
    std::optional<RpcArrival> arrival = transport_->Await(deadline);
    if (!arrival.has_value()) {
      // The attempt's deadline passed: every outstanding call timed out.
      const Slot* worst = nullptr;
      for (const Slot& s : slots) {
        if (s.done) continue;
        Count("rpc.timeout");
        if (worst == nullptr || s.attempts > worst->attempts) worst = &s;
      }
      if (worst->attempts >= max_attempts) {
        return Timeout("rpc to node " + std::to_string(worst->dst) +
                       " timed out after " + std::to_string(max_attempts) +
                       " attempt(s)");
      }
      const int base = std::max(1, policy.backoff_base_ms);
      transport_->Pause(
          std::min(1000, base << std::min(worst->attempts - 1, 10)));
      // Resend the SAME req_ids, re-routed and re-stamped: the home's
      // at-most-once cache absorbs a duplicate whose response was lost, and
      // the silence may be a dead home whose eviction has since applied.
      for (Slot& s : slots) {
        if (s.done) continue;
        ++s.attempts;
        Count("rpc.retry");
        DSE_RETURN_IF_ERROR(SendSlot(s, /*failover=*/false));
      }
      deadline = AttemptDeadline(policy);
      continue;
    }
    // Request ids increase in slot order.
    const auto it = std::lower_bound(
        slots.begin(), slots.end(), arrival->req_id,
        [](const Slot& s, std::uint64_t id) { return s.env.req_id < id; });
    if (it == slots.end() || it->env.req_id != arrival->req_id || it->done) {
      // The reply to a call this task already gave up on, or a duplicate.
      Count("rpc.stale_resp");
      continue;
    }
    Slot& s = *it;
    if (!arrival->outcome.ok()) {
      if (arrival->outcome.status().code() != ErrorCode::kUnavailable ||
          !CanFailOver(s)) {
        return arrival->outcome.status();
      }
      ++s.failovers;
      DSE_RETURN_IF_ERROR(SendSlot(s, /*failover=*/true));
      deadline = AttemptDeadline(policy);
      continue;
    }
    if (const auto* rr =
            std::get_if<proto::RetryResp>(&arrival->outcome->body)) {
      // Epoch bounce: the serving node is in another membership epoch than
      // this request's stamp. Reconcile, then resend the same req_id (a
      // promoted backup replays recorded responses).
      if (!CanFailOver(s)) {
        return Unavailable("epoch bounce with no failover budget left");
      }
      transport_->OnBounce(arrival->outcome->src_node, *rr);
      Count("recovery.client_retries");
      ++s.failovers;
      DSE_RETURN_IF_ERROR(SendSlot(s, /*failover=*/true));
      deadline = AttemptDeadline(policy);
      continue;
    }
    s.resp = std::move(*arrival->outcome);
    s.done = true;
    --remaining;
  }
  return Status::Ok();
}

}  // namespace dse
