// The replica module (recovery/replica.h) driven through four real
// KernelCores with no runtime: every frame the kernels emit lands on one
// FIFO wire that the test pumps, holds back by type, replays or drops, so
// each replication / state-transfer / drain race is scripted step by step.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dse/gmm/addr.h"
#include "dse/kernel_core.h"
#include "dse/proto/messages.h"
#include "dse/recovery/recovery.h"

namespace dse {
namespace {

constexpr int kNodes = 4;

// An address homed on `node`, `offset` bytes into its arena.
gmm::GlobalAddr Homed(NodeId node, std::uint64_t offset) {
  return gmm::MakeAddr(gmm::AddrKind::kNodeHomed,
                       static_cast<std::uint8_t>(node), offset);
}

class Cluster {
 public:
  explicit Cluster(bool read_cache = false) {
    for (NodeId n = 0; n < kNodes; ++n) {
      KernelOptions o;
      o.replication = 1;
      o.read_cache = read_cache;
      cores_.push_back(std::make_unique<KernelCore>(n, kNodes, o));
    }
  }

  KernelCore& core(NodeId n) { return *cores_[static_cast<size_t>(n)]; }

  // A client call from a task on `from` to `to`'s kernel, stamped with
  // `from`'s epoch. Returns its req_id; pass one to resend that call.
  std::uint64_t Request(NodeId from, NodeId to, proto::Body body,
                        std::uint64_t req_id = 0) {
    proto::Envelope env;
    env.req_id = req_id != 0 ? req_id : next_req_++;
    env.src_node = from;
    env.epoch = core(from).epoch();
    env.body = std::move(body);
    Post(core(to).Handle(env));
    return env.req_id;
  }
  // A kernel-to-kernel frame delivered straight to `to`.
  void Deliver(NodeId to, const proto::Envelope& env) {
    Post(core(to).Handle(env));
  }
  void Post(KernelCore::Actions actions) {
    for (auto& o : actions.out) wire_.push_back(std::move(o));
  }

  // Delivers every frame in FIFO order (including the ones delivery
  // produces) except held types, which stay queued in order. Frames to a
  // killed node vanish; client responses are recorded by req_id.
  void Pump() {
    std::deque<KernelCore::Outgoing> kept;
    while (!wire_.empty()) {
      KernelCore::Outgoing o = std::move(wire_.front());
      wire_.pop_front();
      if (dead_.count(o.dst) > 0) continue;
      if (held_.count(o.env.type()) > 0) {
        kept.push_back(std::move(o));
        continue;
      }
      ++delivered_[o.env.type()];
      if (proto::IsClientResponse(o.env.type())) {
        core(o.dst).FillCacheFrom(o.env);
        replies_[o.env.req_id] = o.env;
        continue;
      }
      Post(core(o.dst).Handle(o.env));
    }
    wire_ = std::move(kept);
  }
  void Hold(proto::MsgType type) { held_.insert(type); }
  void Release(proto::MsgType type) { held_.erase(type); }
  // Loses every queued frame of `type`.
  void Drop(proto::MsgType type) {
    std::deque<KernelCore::Outgoing> kept;
    for (auto& o : wire_) {
      if (o.env.type() != type) kept.push_back(std::move(o));
    }
    wire_ = std::move(kept);
  }
  // Copies of the queued (held) frames of `type`.
  std::vector<KernelCore::Outgoing> Queued(proto::MsgType type) const {
    std::vector<KernelCore::Outgoing> out;
    for (const auto& o : wire_) {
      if (o.env.type() == type) out.push_back(o);
    }
    return out;
  }
  std::uint64_t Delivered(proto::MsgType type) const {
    const auto it = delivered_.find(type);
    return it == delivered_.end() ? 0 : it->second;
  }

  // Membership: `dead` stops receiving and every survivor evicts it.
  void Evict(NodeId dead, std::uint32_t epoch) {
    dead_.insert(dead);
    for (NodeId n = 0; n < kNodes; ++n) {
      if (dead_.count(n) == 0) Post(core(n).ApplyEviction(dead, epoch));
    }
  }
  void Tick() {
    for (NodeId n = 0; n < kNodes; ++n) {
      if (dead_.count(n) == 0) Post(core(n).TickTransfers());
    }
  }

  bool Answered(std::uint64_t req_id) const {
    return replies_.count(req_id) > 0;
  }
  const proto::Envelope& Reply(std::uint64_t req_id) const {
    return replies_.at(req_id);
  }

  std::uint64_t FetchAdd(NodeId from, NodeId to, gmm::GlobalAddr addr,
                         std::int64_t delta, std::uint64_t req_id = 0) {
    proto::AtomicReq req;
    req.op = proto::AtomicOp::kFetchAdd;
    req.addr = addr;
    req.operand = delta;
    return Request(from, to, req, req_id);
  }
  // Reads the 8-byte slot at `addr` from `to`'s serving home.
  std::int64_t ReadI64(NodeId from, NodeId to, gmm::GlobalAddr addr) {
    const std::uint64_t id = Request(from, to, proto::ReadReq{addr, 8, false});
    Pump();
    const auto* resp = std::get_if<proto::ReadResp>(&Reply(id).body);
    EXPECT_NE(resp, nullptr) << "read bounced or unanswered";
    if (resp == nullptr || resp->data.size() != 8) return -1;
    std::int64_t v = 0;
    std::memcpy(&v, resp->data.data(), 8);
    return v;
  }

  std::uint64_t Counter(NodeId n, const char* name) {
    const MetricsSnapshot snap = core(n).StatsSnapshot();
    const auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second;
  }

 private:
  std::vector<std::unique_ptr<KernelCore>> cores_;
  std::deque<KernelCore::Outgoing> wire_;
  std::set<proto::MsgType> held_;
  std::set<NodeId> dead_;
  std::map<std::uint64_t, proto::Envelope> replies_;
  std::map<proto::MsgType, std::uint64_t> delivered_;
  std::uint64_t next_req_ = 1;
};

// Fills `node`'s home with more than two state chunks of data, so a transfer
// of it stays open across several round trips.
void FillHome(Cluster& c, NodeId node) {
  proto::WriteReq w;
  w.addr = Homed(node, 0x10000);
  w.data.assign(2 * recovery::kStateChunkBytes + 100, 0x5A);
  c.Request(node == 0 ? 1 : 0, node, std::move(w));
  c.Pump();
}

// A mutation's reply is withheld until the backup acks its record, and goes
// out the moment the ack lands.
TEST(Replica, ReplyGatedUntilBackupAcksRecord) {
  Cluster c;
  const auto b = Homed(0, 0x100);
  c.Hold(proto::MsgType::kReplicateAck);
  const std::uint64_t id = c.FetchAdd(3, 0, b, 5);
  c.Pump();
  EXPECT_FALSE(c.Answered(id));
  EXPECT_EQ(c.Delivered(proto::MsgType::kReplicateReq), 1u);
  c.Release(proto::MsgType::kReplicateAck);
  c.Pump();
  ASSERT_TRUE(c.Answered(id));
  EXPECT_EQ(std::get<proto::AtomicResp>(c.Reply(id).body).old_value, 0);
}

// A retransmitted record is re-acked (the primary may have lost the ack)
// but never applied twice.
TEST(Replica, DuplicateRecordIsReackedNotReapplied) {
  Cluster c;
  const auto b = Homed(0, 0x100);
  c.Hold(proto::MsgType::kReplicateReq);
  c.FetchAdd(3, 0, b, 5);
  const auto records = c.Queued(proto::MsgType::kReplicateReq);
  ASSERT_EQ(records.size(), 1u);
  c.Release(proto::MsgType::kReplicateReq);
  c.Pump();
  const std::uint64_t acks = c.Delivered(proto::MsgType::kReplicateAck);
  c.Deliver(1, records[0].env);
  c.Pump();
  EXPECT_EQ(c.Delivered(proto::MsgType::kReplicateAck), acks + 1);
  c.Evict(0, 1);
  c.Pump();
  EXPECT_EQ(c.ReadI64(3, 1, b), 5);
}

// A record can overtake the first chunk of the transfer that seeds its
// shadow (the two leave the sender on different threads). It is acked,
// kept, and replayed on top of the snapshot once the snapshot installs.
TEST(Replica, RecordThatBeatsChunkZeroIsReplayed) {
  Cluster c;
  const auto b = Homed(0, 0x100);
  c.FetchAdd(3, 0, b, 1);
  c.Pump();
  c.Hold(proto::MsgType::kStateChunkReq);
  c.Evict(1, 1);  // node 0's new backup is node 2: snapshot taken now
  const std::uint64_t id = c.FetchAdd(3, 0, b, 5);
  c.Pump();  // the record reaches node 2 before chunk 0, and is acked
  EXPECT_TRUE(c.Answered(id));
  c.Release(proto::MsgType::kStateChunkReq);
  c.Pump();
  c.Evict(0, 2);
  c.Pump();
  EXPECT_EQ(c.ReadI64(3, 2, b), 6);
}

// Records that arrive while a transfer is open are acked at once (so the
// primary's replies go out) and applied after the blob installs.
TEST(Replica, RecordsArrivingMidTransferAreBuffered) {
  Cluster c;
  const auto b = Homed(0, 0x100);
  FillHome(c, 0);
  c.Hold(proto::MsgType::kStateChunkResp);
  c.Evict(1, 1);
  c.Pump();  // chunk 0 is in at node 2; its ack is held, so chunk 1 is not
  const std::uint64_t id = c.FetchAdd(3, 0, b, 5);
  c.Pump();
  EXPECT_TRUE(c.Answered(id));
  c.Release(proto::MsgType::kStateChunkResp);
  c.Pump();
  EXPECT_TRUE(c.core(0).transfers_idle());
  EXPECT_EQ(c.Counter(0, "recovery.rereplications"), 1u);
  c.Evict(0, 2);
  c.Pump();
  EXPECT_EQ(c.ReadI64(3, 2, b), 5);
  // Node 1's untouched home at epoch 0, then node 0's.
  EXPECT_EQ(c.Counter(2, "recovery.promotions"), 2u);
}

// A drain handoff re-seeds a replica the receiver already holds. When the
// draining sender dies mid-transfer, the records queued behind the aborted
// blob exist nowhere else: they are replayed onto the existing shadow
// before it is promoted.
TEST(Replica, SenderDeathMidTransferReplaysQueueOntoExistingShadow) {
  Cluster c;
  const auto b = Homed(2, 0x100);
  FillHome(c, 2);
  c.FetchAdd(0, 2, b, 1);
  c.Pump();
  proto::Envelope drain;
  drain.src_node = 0;
  drain.body = proto::DrainReq{2, 0};
  c.Hold(proto::MsgType::kStateChunkResp);
  for (NodeId n = 0; n < kNodes; ++n) c.Deliver(n, drain);
  c.Pump();  // handoff chunk 0 of node 2's home is in at node 3
  const std::uint64_t id = c.FetchAdd(0, 2, b, 5);
  c.Pump();
  EXPECT_TRUE(c.Answered(id));
  c.Evict(2, 1);
  c.Pump();
  EXPECT_EQ(c.ReadI64(0, 3, b), 6);
  EXPECT_EQ(c.Counter(3, "recovery.promotions"), 1u);
  EXPECT_EQ(c.Counter(3, "recovery.drains"), 0u);
}

// A retransmitted chunk 0 can arrive after its transfer installed (the ack
// raced the resend). It is re-acked and dropped: re-installing the stale
// snapshot would roll back every record applied since.
TEST(Replica, DuplicateChunkZeroAfterInstallDoesNotRollBack) {
  Cluster c;
  const auto b = Homed(0, 0x100);
  c.Hold(proto::MsgType::kStateChunkReq);
  c.Evict(1, 1);
  // Node 0's home to node 2 (and node 1's promoted one from node 2 to 3).
  const auto chunks = c.Queued(proto::MsgType::kStateChunkReq);
  ASSERT_EQ(chunks.size(), 2u);
  ASSERT_EQ(chunks[0].dst, 2);
  c.Release(proto::MsgType::kStateChunkReq);
  c.Pump();
  c.FetchAdd(3, 0, b, 5);
  c.Pump();
  const std::uint64_t acks = c.Delivered(proto::MsgType::kStateChunkResp);
  c.Deliver(2, chunks[0].env);
  c.Pump();
  EXPECT_EQ(c.Delivered(proto::MsgType::kStateChunkResp), acks + 1);
  c.Evict(0, 2);
  c.Pump();
  EXPECT_EQ(c.ReadI64(3, 2, b), 5);
}

// The cutover that completes a drain adopts a shadow seeded by the
// still-serving source: a planned owner change, counted as recovery.drains,
// never as recovery.promotions.
TEST(Replica, DrainSeededAdoptionCountsDrainsNotPromotions) {
  Cluster c;
  const auto b = Homed(2, 0x100);
  c.FetchAdd(0, 2, b, 7);
  c.Pump();
  proto::Envelope drain;
  drain.src_node = 0;
  drain.body = proto::DrainReq{2, 0};
  for (NodeId n = 0; n < kNodes; ++n) c.Deliver(n, drain);
  c.Pump();
  EXPECT_TRUE(c.core(2).transfers_idle());
  EXPECT_GE(c.Counter(2, "recovery.handoff.chunks"), 1u);
  c.Evict(2, 1);
  c.Pump();
  EXPECT_EQ(c.Counter(3, "recovery.drains"), 1u);
  EXPECT_EQ(c.Counter(3, "recovery.promotions"), 0u);
  EXPECT_EQ(c.ReadI64(0, 3, b), 7);
}

// Before the first membership change the ring backup has mirrored its
// primary since boot, so no record at all proves the home never acked a
// mutation: the backup promotes an empty home. Past epoch 0 the same
// absence may be a broken re-replication chain, so the home stays
// unavailable instead of serving zeros.
TEST(Replica, EpochZeroPromotesAnEmptyHomeLaterEpochsDoNot) {
  Cluster c;
  c.Evict(2, 1);
  c.Pump();
  EXPECT_EQ(c.Counter(3, "recovery.promotions"), 1u);
  EXPECT_EQ(c.ReadI64(0, 3, Homed(2, 0x40)), 0);
  const std::uint64_t id = c.FetchAdd(0, 3, Homed(2, 0x40), 3);
  c.Pump();
  EXPECT_TRUE(c.Answered(id));

  Cluster later;
  later.Hold(proto::MsgType::kStateChunkReq);
  later.Evict(1, 1);
  later.Drop(proto::MsgType::kStateChunkReq);  // node 2 never gets node 0's
  later.Release(proto::MsgType::kStateChunkReq);
  later.Pump();
  later.Evict(0, 2);  // no record from node 0 proves nothing past epoch 0
  later.Pump();
  EXPECT_EQ(later.core(2).RouteOf(0), 2);
  const std::uint64_t read =
      later.Request(3, 2, proto::ReadReq{Homed(0, 0x40), 8, false});
  later.Pump();
  ASSERT_TRUE(later.Answered(read));
  EXPECT_TRUE(std::holds_alternative<proto::RetryResp>(later.Reply(read).body));
}

// A record that a snapshot already contains must not be applied on top of
// it. Here node 0's transfer to its new backup is deferred behind an open
// invalidation round; a fetch-add lands meanwhile (node 2 keeps its record,
// having no base state yet); the snapshot taken once the round closes
// already holds the +5 — replaying the kept record would double it.
TEST(Replica, RecordAlreadyInsideSnapshotIsNotReapplied) {
  Cluster c(/*read_cache=*/true);
  const auto a = Homed(0, 0);
  const auto b = Homed(0, 4096);
  c.Request(3, 0, proto::ReadReq{a, 8, true});  // node 3 caches block A
  c.Pump();
  c.Hold(proto::MsgType::kInvalidateAck);
  c.Request(2, 0, proto::WriteReq{a, std::vector<std::uint8_t>(8, 1)});
  c.Pump();  // invalidation round for A open at node 0
  c.Evict(1, 1);
  c.Pump();  // node 0's transfer to node 2 is deferred behind the round
  const std::uint64_t id = c.FetchAdd(3, 0, b, 5);
  c.Pump();
  EXPECT_TRUE(c.Answered(id));
  c.Release(proto::MsgType::kInvalidateAck);
  c.Pump();
  c.Tick();  // the deferred transfer starts: its snapshot holds the +5
  c.Pump();
  EXPECT_TRUE(c.core(0).transfers_idle());
  c.Evict(0, 2);
  c.Pump();
  EXPECT_EQ(c.ReadI64(3, 2, b), 5);
}

// The same double apply through a restart: node 2 keeps a record while the
// transfer that would seed it is still in flight; an eviction restarts the
// transfer under a bumped epoch, and the new snapshot already holds it.
TEST(Replica, RecordInsideRestartedSnapshotIsNotReapplied) {
  Cluster c;
  const auto b = Homed(0, 0x100);
  c.Hold(proto::MsgType::kStateChunkReq);
  c.Evict(1, 1);  // snapshot without the +5, held on the wire
  const std::uint64_t id = c.FetchAdd(3, 0, b, 5);
  c.Pump();
  EXPECT_TRUE(c.Answered(id));
  c.Evict(3, 2);  // node 0 restarts its transfer: the new snapshot has it
  c.Release(proto::MsgType::kStateChunkReq);
  c.Pump();  // the epoch-1 chunk is fenced; the epoch-2 one installs
  EXPECT_TRUE(c.core(0).transfers_idle());
  c.Evict(0, 3);
  c.Pump();
  EXPECT_EQ(c.ReadI64(2, 2, b), 5);
}

// ...and through a resend: the record is lost, the snapshot taken after it
// installs, and the requester's retry makes the primary resend the record.
// It is acked (releasing the reply) and skipped.
TEST(Replica, RecordResentAfterInstallIsNotReapplied) {
  Cluster c(/*read_cache=*/true);
  const auto a = Homed(0, 0);
  const auto b = Homed(0, 4096);
  c.Request(3, 0, proto::ReadReq{a, 8, true});
  c.Pump();
  c.Hold(proto::MsgType::kInvalidateAck);
  c.Request(2, 0, proto::WriteReq{a, std::vector<std::uint8_t>(8, 1)});
  c.Pump();
  c.Evict(1, 1);
  c.Pump();  // node 0's transfer to node 2 waits for the round
  c.Hold(proto::MsgType::kReplicateReq);
  const std::uint64_t id = c.FetchAdd(3, 0, b, 5);
  c.Drop(proto::MsgType::kReplicateReq);  // the record is lost
  c.Release(proto::MsgType::kReplicateReq);
  c.Release(proto::MsgType::kInvalidateAck);
  c.Pump();
  c.Tick();
  c.Pump();  // the snapshot, +5 included, installs at node 2
  EXPECT_FALSE(c.Answered(id));
  c.FetchAdd(3, 0, b, 5, id);  // the retry resends the gated record
  c.Pump();
  ASSERT_TRUE(c.Answered(id));
  EXPECT_EQ(std::get<proto::AtomicResp>(c.Reply(id).body).old_value, 0);
  c.Evict(0, 2);
  c.Pump();
  EXPECT_EQ(c.ReadI64(3, 2, b), 5);
}

// A chunk no ack advances is resent after kChunkResendTicks whole ticks,
// then after a wait that doubles per resend up to kMaxChunkResendTicks.
TEST(Replica, ChunkResendBacksOffExponentiallyToTheCap) {
  Cluster c;
  c.Hold(proto::MsgType::kStateChunkReq);
  c.Evict(1, 1);
  const auto sent = [&c] {
    int n = 0;
    for (const auto& o : c.Queued(proto::MsgType::kStateChunkReq)) {
      n += std::get<proto::StateChunkReq>(o.env.body).primary == 0 ? 1 : 0;
    }
    return n;
  };
  ASSERT_EQ(sent(), 1);
  std::vector<int> resend_ticks;
  for (int t = 1; t <= 120; ++t) {
    const int before = sent();
    c.Tick();
    if (sent() > before) resend_ticks.push_back(t);
  }
  ASSERT_GE(resend_ticks.size(), 4u);
  int wait = recovery::kChunkResendTicks;
  int last = 0;
  for (const int t : resend_ticks) {
    EXPECT_EQ(t - last, wait + 1);
    last = t;
    wait = std::min(2 * wait, recovery::kMaxChunkResendTicks);
  }
  EXPECT_EQ(wait, recovery::kMaxChunkResendTicks);
}

}  // namespace
}  // namespace dse
