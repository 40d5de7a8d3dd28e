// The replica path (docs/recovery.md), once: everything a kernel does to
// keep a second copy of every GMM home and to move homes between nodes.
//
//   * Primary side: Forward() turns each mutating request a served home
//     executed into an epoch-stamped ReplicateReq record for the node's ring
//     backup and gates the request's client replies on the record's ack.
//   * Backup side: one Shadow per primary — a coherence-off GmmHome fed
//     the records, the client responses it produced (merged into the
//     kernel's at-most-once cache on promotion), and one queue for records
//     that cannot be applied yet because the shadow has no base state or a
//     state transfer is re-seeding it.
//   * State transfer: ack-paced StateChunkReq streams with a doubling
//     per-transfer backoff, for re-replication after a membership change,
//     the rejoin handback and the planned-drain handoff.
//   * Membership side effects: shadow promotion on eviction, join
//     admission, the drain marks and the drained node's readiness report.
//
// KernelCore owns one Replica and keeps routing (HomeMap), the epoch fence,
// the at-most-once cache and request dispatch; the Replica reaches those as
// the kernel's friend. Every call is serialized by the caller exactly like
// KernelCore::Handle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "dse/gmm/home.h"
#include "dse/ids.h"
#include "dse/kernel_core.h"
#include "dse/proto/messages.h"
#include "dse/recovery/recovery.h"

namespace dse::recovery {

class Replica {
 public:
  using Actions = KernelCore::Actions;
  using DedupeKey = KernelCore::DedupeKey;
  using Homes = std::map<NodeId, std::unique_ptr<gmm::GmmHome>>;

  explicit Replica(KernelCore* core);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // The frames Handle() consumes: ReplicateReq/Ack, StateChunkReq/Resp,
  // NodeJoinReq/Resp and DrainReq/Resp.
  static bool Handles(proto::MsgType type);
  void Handle(const proto::Envelope& env, Actions* actions);

  // Shadows promoted here, now serving a dead primary's key space.
  const Homes& promoted() const { return promoted_; }
  gmm::GmmHome* Promoted(NodeId primary) const;
  // Rejoin: this node's own home is empty until its previous holder streams
  // the state back; requests for it bounce with RetryResp meanwhile.
  bool own_home_pending() const { return own_home_pending_; }
  // No outgoing transfer in flight or deferred.
  bool idle() const { return xfer_out_.empty() && xfer_deferred_.empty(); }
  bool Draining(NodeId node) const { return draining_.count(node) > 0; }
  // The draining node reported its handoff complete under this epoch.
  bool DrainReported(NodeId node) const {
    return Draining(node) && drain_ready_.count(node) > 0;
  }
  std::size_t draining_count() const { return draining_.size(); }

  // Primary side, once per mutating request the served home `natural`
  // executed: forwards it to the backup and gates the client replies in
  // `actions` until the backup acks. No-op for non-mutating requests.
  void Forward(NodeId natural, const proto::Envelope& env, Actions* actions);
  // Withholds client responses whose origin request is still gated on a
  // backup ack (covers replies deferred behind invalidation rounds).
  void HoldGated(Actions* actions);
  // A duplicate of an in-flight request doubles as the retransmission
  // trigger for the replication record its reply is gated on.
  void ResendGatedFor(const DedupeKey& key, Actions* actions);

  // The replica half of an eviction, after the route map evicted `dead`:
  // releases replies gated on the dead backup, settles transfers it was
  // part of, promotes every shadow whose slot now routes here, severs `dead`
  // from the promoted homes and shadows, and restores f = 1.
  // `first_change`: the eviction left epoch 0.
  void OnEvicted(NodeId dead, bool first_change, NodeId old_backup,
                 Actions* actions);
  // Rejoin wipe: every shadow, promotion, record and transfer; the node's
  // own home turns pending until the handback installs.
  void Reset();
  // The membership tick: deferred transfer starts, chunk retransmission
  // under backoff, and a drained node's readiness report.
  void Tick(Actions* actions);

 private:
  // Backup side: the replica of one primary's home.
  struct Shadow {
    std::unique_ptr<gmm::GmmHome> home;  // null until it has base state
    // The installed snapshot came from `base_from` when that sender's next
    // record seq was `base_seq`: its records below that are in the base.
    NodeId base_from = -1;
    std::uint64_t base_seq = 0;
    FifoWindow<std::uint64_t> seen;  // record seqs taken (re-ack, not re-run)
    FifoWindow<DedupeKey, proto::Envelope> completed;  // responses produced
    // Records acked but not applied yet, in arrival order: they arrived
    // while a transfer into this shadow was open, or before it had any base
    // state — past epoch 0 every fresh record stream is preceded by a
    // transfer, and a record can beat its first chunk (they leave the
    // sender on different threads). Applied on top of the next installed
    // snapshot, minus what it already holds, or onto the existing home if
    // the transfer's sender dies.
    std::vector<proto::Envelope> queue;
    // Seeded by a planned drain handoff: adopting it later counts
    // recovery.drains, not recovery.promotions.
    bool drain_ready = false;

    bool Covers(NodeId from, std::uint64_t seq) const {
      return from == base_from && seq < base_seq;
    }
  };

  // Primary side: a record in flight to the backup, with the client replies
  // gated on its ack.
  struct PendingRecord {
    NodeId backup = -1;
    proto::Envelope record;     // resendable ReplicateReq envelope
    DedupeKey origin{-1, 0};    // requester of the replicated mutation
    std::vector<KernelCore::Outgoing> held;
  };

  // Outgoing transfer of one home's serialized state, keyed by the natural
  // primary. Ack-paced: one chunk in flight, advanced by StateChunkResp.
  struct OutgoingTransfer {
    NodeId target = -1;
    std::uint32_t epoch = 0;
    std::uint64_t next_seq = 0;  // our next record seq at snapshot time
    std::vector<std::uint8_t> blob;
    std::uint32_t next = 0;      // index of the chunk currently in flight
    std::uint32_t total = 0;
    bool demote = false;         // rejoin handback: keep the state as a shadow
    // Retransmission backoff: ticks since the chunk was last sent, and how
    // many it may sit unacked before the next resend.
    int idle_ticks = 0;
    int wait = kChunkResendTicks;
  };
  // A transfer start deferred behind an in-flight invalidation round.
  struct DeferredTransfer {
    NodeId primary = -1;
    NodeId target = -1;
    bool demote = false;
  };
  // Incoming transfer reassembly, keyed by the natural primary.
  struct IncomingTransfer {
    std::uint32_t epoch = 0;
    std::uint32_t total = 0;
    NodeId from = -1;
    std::uint64_t next_seq = 0;
    std::vector<std::uint8_t> blob;  // chunks received so far
    std::uint32_t received = 0;
  };

  NodeId self() const { return core_->self(); }
  void Send(NodeId dst, std::uint32_t epoch, proto::Body body,
            Actions* actions) const;

  void OnRecord(const proto::Envelope& env, Actions* actions);
  void OnRecordAck(const proto::Envelope& env, Actions* actions);
  void OnChunk(const proto::Envelope& env, Actions* actions);
  void OnChunkAck(const proto::Envelope& env, Actions* actions);
  void OnJoinReq(const proto::Envelope& env, Actions* actions);
  void OnJoinResp(const proto::Envelope& env, Actions* actions);
  void OnDrainReq(const proto::Envelope& env, Actions* actions);
  void OnDrainResp(const proto::Envelope& env, Actions* actions);

  // The one record-apply path: runs a record's mutation on the shadow and
  // keeps the client responses it produced.
  void Apply(Shadow& shadow, const proto::Envelope& record);
  void Keep(Shadow& shadow, NodeId dst, proto::Envelope response);
  // Installs a snapshot as the shadow's base, then applies its queue.
  void Seed(NodeId primary, Shadow& shadow,
            const std::vector<std::uint8_t>& blob, NodeId from,
            std::uint64_t next_seq);
  // The one promotion path: the shadow becomes the serving home and its
  // responses join the at-most-once cache.
  void Promote(NodeId primary);
  void Install(NodeId primary);

  // Admission side effects on every member: hand homes re-routed to the
  // joiner back to it, then the membership tail.
  void OnAdmitted(NodeId node, NodeId old_backup, Actions* actions);
  // What an eviction and an admission share once the route map moved:
  // re-stamp pending records, drop the client cache, clear `node`'s drain
  // marks, and re-seed the backup with `stream`, every in-flight transfer
  // (its chunks carry the old epoch) and, if the ring successor changed,
  // every home this node serves.
  void AfterViewChange(NodeId node, NodeId old_backup, std::set<NodeId> stream,
                       Actions* actions);
  // Begins (or defers, while an invalidation round is in flight) streaming
  // the home serving `primary` to `target`. `demote`: the rejoin handback —
  // stop serving now and keep the state as a shadow on completion.
  void StartTransfer(NodeId primary, NodeId target, bool demote,
                     Actions* actions);
  void SendChunk(NodeId primary, Actions* actions);
  // The draining node streams every home it serves to its ring successor
  // while continuing to serve it.
  void StartDrainHandoff(Actions* actions);

  KernelCore* core_;

  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, PendingRecord> pending_;  // by record seq
  std::map<DedupeKey, std::uint64_t> gated_;        // origin -> record seq

  std::map<NodeId, Shadow> shadows_;
  Homes promoted_;

  std::map<NodeId, OutgoingTransfer> xfer_out_;
  std::vector<DeferredTransfer> xfer_deferred_;
  std::map<NodeId, IncomingTransfer> xfer_in_;
  // Epoch of the last installed incoming transfer per primary. A duplicate
  // chunk can arrive after the install (its ack raced a resend); it is
  // re-acked and dropped, never re-opens the transfer. A genuinely new
  // transfer for the same primary always runs under a bumped epoch.
  std::map<NodeId, std::uint32_t> installed_;
  bool own_home_pending_ = false;

  // Planned drain: every member mirrors the draining set from the DrainReq
  // broadcast; drain_ready_ (coordinator side) holds the draining nodes
  // whose handoff-complete DrainResp arrived.
  std::set<NodeId> draining_;
  std::set<NodeId> drain_ready_;

  Counter* forwards_;
  Counter* promotions_;
  Counter* replayed_;
  Counter* rereplications_;
  Counter* rejoins_;
  Counter* xfer_chunks_;
  Counter* xfer_bytes_;
  Counter* drains_;
  Counter* handoff_chunks_;
  Counter* handoff_bytes_;
};

}  // namespace dse::recovery
