// The membership protocol (docs/recovery.md), once, for every runtime.
//
// One MembershipAgent per node decides every membership change: it latches
// suspicions, lets only the coordinator — the lowest live rank, with
// implicit succession past suspected ones — commit a locally detected
// eviction, guards it with the quorum check (a minority parks instead of
// forking the image), announces each eviction and re-announces it until
// every member is heard at the new epoch, reconciles
// views from RetryResp bounces (adopt a newer eviction, push-repair a
// lagging responder), turns an EvictReq naming this node into one
// ResetForRejoin + NodeJoinReq per episode, and runs planned drains (the
// trigger latch and the coordinator's cutover) plus the state-transfer
// retransmission tick.
//
// The runtime supplies only a failure detector — "is this peer silent?" —
// and carries out the returned KernelCore::Actions on its own send path:
//   * NodeHost: a heartbeat prober with a wall-clock timeout, pause
//     compensation and an optional ground-truth oracle;
//   * SimRuntime: the fault injector's per-pair verdict, read at the
//     virtual-time tick.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "dse/ids.h"
#include "dse/kernel_core.h"
#include "dse/proto/messages.h"

namespace dse::recovery {

class MembershipAgent {
 public:
  using Actions = KernelCore::Actions;

  struct Options {
    // The failure detector: true when `peer` is silent as of `now_ms` (the
    // time passed to Tick). Asked once per tick for every peer.
    std::function<bool(NodeId peer, std::int64_t now_ms)> silent;
    // Serializes KernelCore server state where several threads drive one
    // node (NodeHost's core_mu_); null on the single-threaded simulator.
    std::mutex* core_mu = nullptr;
    // Optional: a suspicion of `peer` was just latched (fail its in-flight
    // calls).
    std::function<void(NodeId peer)> on_suspect;
    // Optional: an admission lifted the suspicion of `peer` without a frame
    // from it (restart the detector's silence clock for it).
    std::function<void(NodeId peer)> on_clear;
    // Optional planned-drain trigger (fault plan `drain N after M`), polled
    // by the coordinator's tick; latched once per peer.
    std::function<bool(NodeId peer)> drain_requested;
  };

  MembershipAgent(KernelCore* core, Options options);

  MembershipAgent(const MembershipAgent&) = delete;
  MembershipAgent& operator=(const MembershipAgent&) = delete;

  // True while `peer` is latched suspected-dead here. Lock-free: send paths
  // consult it per frame.
  bool Suspected(NodeId peer) const;

  // One detector round: latches every silent peer and lifts suspicions the
  // detector no longer confirms for current members, then evicts (or parks
  // on) every suspected member, and — with replication on — runs the
  // coordinator's re-announce and drain duties and the transfer tick.
  Actions Tick(std::int64_t now_ms);

  // Every received frame, before the runtime routes it. Any frame proves its
  // sender reachable and reports the epoch it has reached. Consumes
  // Heartbeat, EvictReq and stale copies of this node's own admission
  // (returns true); every other frame, NodeJoinResp included, still goes on
  // to KernelCore::Handle.
  bool OnFrame(const proto::Envelope& env, Actions* actions);

  // A client call bounced with RetryResp: adopt the responder's eviction if
  // it is ahead, push-repair it with an EvictReq if it lags.
  Actions OnBounce(NodeId responder, const proto::RetryResp& rr);

  // Planned drain admin verb: applies DrainReq{node} locally and broadcasts
  // it to every live member (the target included). No-op with replication
  // off or for a dead/invalid node.
  Actions AdminDrain(NodeId node);

 private:
  std::unique_lock<std::mutex> LockCore() const;
  NodeId self() const { return core_->self(); }
  int num_nodes() const { return core_->num_nodes(); }
  bool ValidPeer(NodeId node) const {
    return node >= 0 && node < num_nodes() && node != self();
  }
  // Latches `node` suspected (once) without any membership change.
  void Latch(NodeId node, const char* why);
  // Latches `node` and applies its eviction at `epoch` (0 = locally
  // detected: committed only by the acting coordinator, quorum-guarded, at
  // the next epoch). The coordinator announces it.
  void Evict(NodeId node, std::uint32_t epoch, const char* why,
             Actions* actions);
  void Send(NodeId dst, proto::Body body, Actions* actions) const;
  // Coordinator: to each member not yet heard at the current epoch, the
  // latest admission (NodeJoinResp) and an EvictReq for every evicted node;
  // with rejoin on, each evicted node's EvictReq to that node itself.
  void ReAnnounce(Actions* actions);
  // Coordinator: fire planned-drain triggers and evict cutover-ready nodes.
  void DrainDuties(Actions* actions);

  KernelCore* core_;
  Options options_;
  // Suspicion latch per peer. A frame from (or a detector verdict clearing)
  // a suspected peer that is still a member lifts it (partition heal); an
  // evicted peer stays latched until its admission.
  std::vector<std::atomic<bool>> suspected_;
  // Highest membership epoch stamped on any frame from each peer: a member
  // heard at the current epoch has applied every eviction up to it, so the
  // coordinator stops re-announcing to it.
  std::vector<std::atomic<std::uint32_t>> heard_epoch_;
  // One-shot latch per peer for drain_requested: the trigger stays true
  // after the node drained and rejoined.
  std::vector<std::atomic<bool>> drain_initiated_;
  // True while quorum-parked (one recovery.quorum_parks per episode) /
  // mid-rejoin (one ResetForRejoin per eviction episode).
  std::atomic<bool> parked_{false};
  std::atomic<bool> joining_{false};
  // A membership frame arrived since the last tick: the next tick reports
  // our epoch to the coordinator (a Heartbeat stamped with it).
  std::atomic<bool> report_epoch_{false};
  Counter* nodes_dead_;
};

}  // namespace dse::recovery
