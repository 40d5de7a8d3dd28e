// MembershipAgent against a fake failure detector on a scripted clock, with
// the returned actions standing in for the runtime's send path: the one
// copy of the latch / quorum park / announce / re-announce / gossip /
// rejoin / drain rules every runtime runs.
#include "dse/recovery/membership.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dse::recovery {
namespace {

constexpr int kNodes = 4;
constexpr std::int64_t kTimeoutMs = 50;

// One node's kernel and agent, driven the way a runtime drives them: frames
// go to the agent first and on to KernelCore::Handle unless it consumed
// them; every returned Outgoing lands in `sent`.
class Harness {
 public:
  explicit Harness(NodeId self, bool rejoin = true)
      : core_(self, kNodes, KernelOptionsFor(rejoin)),
        agent_(&core_, AgentOptions()) {
    for (NodeId n = 0; n < kNodes; ++n) heard_[n] = 0;
  }

  KernelCore& core() { return core_; }
  MembershipAgent& agent() { return agent_; }

  // Scripted clock: every peer not in `silent` was heard at `now_ms`.
  void Tick(std::int64_t now_ms, const std::vector<NodeId>& silent = {}) {
    for (NodeId n = 0; n < kNodes; ++n) {
      bool quiet = false;
      for (const NodeId s : silent) quiet = quiet || s == n;
      if (!quiet) heard_[n] = now_ms;
    }
    Record(agent_.Tick(now_ms));
  }
  void Deliver(NodeId from, proto::Body body, std::uint32_t epoch,
               std::uint64_t req_id = 0) {
    proto::Envelope env;
    env.req_id = req_id;
    env.src_node = from;
    env.epoch = epoch;
    env.body = std::move(body);
    KernelCore::Actions actions;
    if (!agent_.OnFrame(env, &actions)) actions = core_.Handle(env);
    Record(std::move(actions));
  }
  void Record(KernelCore::Actions actions) {
    for (auto& o : actions.out) sent.push_back(std::move(o));
  }
  void WantDrain(NodeId node) { drain_wanted_[node] = true; }

  // Sent frames of body type T, as (destination, body) pairs; clears them.
  template <typename T>
  std::vector<std::pair<NodeId, T>> Take() {
    std::vector<std::pair<NodeId, T>> out;
    for (const auto& o : sent) {
      if (const auto* b = std::get_if<T>(&o.env.body)) {
        out.emplace_back(o.dst, *b);
      }
    }
    sent.clear();
    return out;
  }
  std::uint64_t Counter(const char* name) {
    const MetricsSnapshot snap = core_.StatsSnapshot();
    const auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second;
  }

  std::vector<KernelCore::Outgoing> sent;

 private:
  static KernelOptions KernelOptionsFor(bool rejoin) {
    KernelOptions o;
    o.replication = 1;
    o.rejoin = rejoin;
    return o;
  }
  // Fake detector: silent once unheard for longer than kTimeoutMs on the
  // scripted clock.
  MembershipAgent::Options AgentOptions() {
    MembershipAgent::Options o;
    o.silent = [this](NodeId peer, std::int64_t now_ms) {
      return now_ms - heard_[peer] > kTimeoutMs;
    };
    o.drain_requested = [this](NodeId peer) {
      return drain_wanted_.count(peer) > 0;
    };
    return o;
  }

  KernelCore core_;
  MembershipAgent agent_;
  std::map<NodeId, std::int64_t> heard_;
  std::map<NodeId, bool> drain_wanted_;
};

// A partition cutting node 3 off from everyone: all three silences latch in
// one tick before any is acted on, so the minority counts itself alone and
// parks — one recovery.quorum_parks per episode, no membership change. A
// heal lifts the suspicions; a second partition is a second episode.
TEST(MembershipAgent, PartitionParksMinorityOncePerEpisode) {
  Harness h(3);
  h.Tick(100, {0, 1, 2});
  h.Tick(200, {0, 1, 2});
  h.Tick(300, {0, 1, 2});
  EXPECT_EQ(h.Counter("recovery.quorum_parks"), 1u);
  EXPECT_EQ(h.Counter("recovery.evictions"), 0u);
  EXPECT_EQ(h.core().epoch(), 0u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_TRUE(h.agent().Suspected(n));
    EXPECT_TRUE(h.core().NodeAlive(n));
  }
  EXPECT_TRUE(h.Take<proto::EvictReq>().empty());

  h.Tick(400);  // healed: every member heard again
  for (NodeId n = 0; n < 3; ++n) EXPECT_FALSE(h.agent().Suspected(n));
  h.Tick(500, {0, 1, 2});
  EXPECT_EQ(h.Counter("recovery.quorum_parks"), 2u);
  EXPECT_EQ(h.core().epoch(), 0u);
}

// The majority side of the same partition: the coordinator evicts the
// silent node at epoch 1 and announces it to the surviving members only.
TEST(MembershipAgent, CoordinatorEvictsAndAnnouncesToSurvivors) {
  Harness h(0);
  h.Tick(100, {3});
  EXPECT_EQ(h.core().epoch(), 1u);
  EXPECT_FALSE(h.core().NodeAlive(3));
  EXPECT_EQ(h.Counter("recovery.quorum_parks"), 0u);
  const auto ev = h.Take<proto::EvictReq>();
  ASSERT_EQ(ev.size(), 2u);
  for (const auto& [dst, body] : ev) {
    EXPECT_TRUE(dst == 1 || dst == 2);
    EXPECT_EQ(body.node, 3);
    EXPECT_EQ(body.epoch, 1u);
  }
}

// Gossip over RetryResp: a responder ahead is adopted (no announce from a
// non-coordinator); a responder behind is push-repaired with our eviction.
TEST(MembershipAgent, BounceAdoptsAheadAndRepairsBehind) {
  Harness h(1);
  h.Record(h.agent().OnBounce(2, proto::RetryResp{1, 3}));
  EXPECT_EQ(h.core().epoch(), 1u);
  EXPECT_FALSE(h.core().NodeAlive(3));
  EXPECT_TRUE(h.Take<proto::EvictReq>().empty());

  h.Record(h.agent().OnBounce(2, proto::RetryResp{0, -1}));
  const auto repair = h.Take<proto::EvictReq>();
  ASSERT_EQ(repair.size(), 1u);
  EXPECT_EQ(repair[0].first, 2);
  EXPECT_EQ(repair[0].second.node, 3);
  EXPECT_EQ(repair[0].second.epoch, 1u);

  // Same epoch: nothing to reconcile.
  h.Record(h.agent().OnBounce(2, proto::RetryResp{1, 3}));
  EXPECT_TRUE(h.sent.empty());
}

// A member reports the epoch a membership frame brought it to at its next
// tick — one Heartbeat to the coordinator, stamped with that epoch — which
// is what ends the coordinator's re-announcements to it.
TEST(MembershipAgent, MemberReportsEpochAfterMembershipFrame) {
  Harness h(1);
  h.Deliver(0, proto::EvictReq{3, 1}, 1);
  h.Tick(100, {3});
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].dst, 0);
  EXPECT_EQ(h.sent[0].env.type(), proto::MsgType::kHeartbeat);
  EXPECT_EQ(h.sent[0].env.epoch, 1u);
  h.sent.clear();
  h.Tick(200, {3});
  EXPECT_TRUE(h.sent.empty());
}

// The coordinator re-announces every tick to members not yet heard at the
// current epoch, and to the evicted node itself only with rejoin on.
TEST(MembershipAgent, ReAnnounceReachesEvicteeOnlyWithRejoin) {
  for (const bool rejoin : {true, false}) {
    Harness h(0, rejoin);
    h.Tick(100, {3});
    h.sent.clear();
    h.Tick(200, {3});
    std::map<NodeId, int> to;
    for (const auto& [dst, body] : h.Take<proto::EvictReq>()) {
      EXPECT_EQ(body.node, 3);
      ++to[dst];
    }
    EXPECT_EQ(to[1], 1) << "rejoin " << rejoin;
    EXPECT_EQ(to[2], 1) << "rejoin " << rejoin;
    EXPECT_EQ(to[3], rejoin ? 1 : 0) << "rejoin " << rejoin;

    // Node 1 is heard at the new epoch: it has the eviction.
    h.Deliver(1, proto::Heartbeat{}, h.core().epoch());
    h.Tick(300, {3});
    to.clear();
    for (const auto& [dst, body] : h.Take<proto::EvictReq>()) ++to[dst];
    EXPECT_EQ(to[1], 0) << "rejoin " << rejoin;
    EXPECT_EQ(to[2], 1) << "rejoin " << rejoin;
  }
}

// An EvictReq naming this node resets its kernel once per eviction episode
// (re-announces only re-send the join request); the admission ends the
// episode, and a stale re-announce from before it is ignored.
TEST(MembershipAgent, SelfEvictionResetsOncePerEpisode) {
  Harness h(2);
  h.Deliver(0, proto::EvictReq{2, 1}, 1);
  EXPECT_TRUE(h.core().own_home_pending());
  // Anything the reset would wipe survives the re-announces.
  h.core().RegisterLocalTask("marker");
  h.Deliver(0, proto::EvictReq{2, 1}, 1);
  h.Deliver(0, proto::EvictReq{2, 1}, 1);
  EXPECT_EQ(h.core().PsSnapshot().size(), 1u);
  const auto joins = h.Take<proto::NodeJoinReq>();
  ASSERT_EQ(joins.size(), 3u);
  for (const auto& [dst, body] : joins) {
    EXPECT_EQ(dst, 0);
    EXPECT_EQ(body.node, 2);
  }

  // Admitted at epoch 2; a delayed copy of the old re-announce is stale.
  h.Deliver(0, proto::NodeJoinResp{2, 2, {1, 1, 1, 1}}, 2);
  EXPECT_EQ(h.core().epoch(), 2u);
  h.Deliver(0, proto::EvictReq{2, 1}, 1);
  EXPECT_EQ(h.core().PsSnapshot().size(), 1u);
  EXPECT_TRUE(h.Take<proto::NodeJoinReq>().empty());

  // A new eviction is a new episode: one more reset.
  h.Deliver(0, proto::EvictReq{2, 3}, 3);
  EXPECT_TRUE(h.core().PsSnapshot().empty());
}

// A reset drops the replies still held on this node — here a write ack
// gated on the backup's replication ack — so it bounces their callers to
// re-route instead of leaving them waiting for an answer that cannot come.
TEST(MembershipAgent, SelfEvictionBouncesHeldReplies) {
  Harness h(2);
  const gmm::GlobalAddr addr = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 2, 64);
  h.Deliver(1, proto::WriteReq{addr, {1, 2, 3, 4, 5, 6, 7, 8}}, 0,
            /*req_id=*/7);
  EXPECT_EQ(h.Take<proto::ReplicateReq>().size(), 1u);  // reply held
  h.Deliver(0, proto::EvictReq{2, 1}, 1);
  int bounces = 0;
  for (const auto& [dst, env] : h.sent) {
    if (env.type() != proto::MsgType::kRetryResp) continue;
    ++bounces;
    EXPECT_EQ(dst, 1);
    EXPECT_EQ(env.req_id, 7u);
  }
  EXPECT_EQ(bounces, 1);
}

// A member that applied an admission ignores a delayed copy of the
// eviction it superseded: applying it would drop a serving member without
// an epoch bump, two views under one epoch.
TEST(MembershipAgent, StaleEvictionAfterAdmissionIsIgnored) {
  Harness h(1);
  h.Deliver(0, proto::EvictReq{3, 1}, 1);
  EXPECT_FALSE(h.core().NodeAlive(3));
  h.Deliver(0, proto::NodeJoinResp{3, 2, {1, 1, 1, 1}}, 2);
  EXPECT_TRUE(h.core().NodeAlive(3));
  h.Deliver(0, proto::EvictReq{3, 1}, 1);  // the delayed re-announce
  EXPECT_TRUE(h.core().NodeAlive(3));
  EXPECT_EQ(h.core().epoch(), 2u);
  h.Deliver(0, proto::EvictReq{3, 3}, 3);  // a genuine later eviction
  EXPECT_FALSE(h.core().NodeAlive(3));
  EXPECT_EQ(h.core().epoch(), 3u);
}

// The planned-drain trigger stays true forever; the coordinator acts on it
// once. Cutover readiness evicts the drained node at epoch + 1, and after
// the node is re-admitted the still-true trigger starts no second drain.
TEST(MembershipAgent, DrainTriggerLatchesOnceAndCutoverEvictsAtNextEpoch) {
  Harness h(0);
  h.WantDrain(2);
  h.Tick(100);
  const auto drains = h.Take<proto::DrainReq>();
  ASSERT_EQ(drains.size(), 3u);  // nodes 1, 2, 3
  EXPECT_TRUE(h.core().NodeDraining(2));
  h.Tick(200);
  EXPECT_TRUE(h.Take<proto::DrainReq>().empty());

  // The drained node reports its handoff complete; the next tick cuts over.
  h.Deliver(2, proto::DrainResp{2, 0}, 0);
  h.Tick(300);
  EXPECT_EQ(h.core().epoch(), 1u);
  EXPECT_FALSE(h.core().NodeAlive(2));
  EXPECT_EQ(h.Counter("recovery.evictions"), 1u);
  std::map<NodeId, int> announced;
  for (const auto& [dst, env] : h.sent) {
    if (const auto* ev = std::get_if<proto::EvictReq>(&env.body)) {
      EXPECT_EQ(ev->node, 2);
      EXPECT_EQ(ev->epoch, 1u);
      ++announced[dst];
    }
  }
  EXPECT_EQ(announced[1], 1);
  EXPECT_EQ(announced[3], 1);
  h.sent.clear();

  // Re-admission under epoch 2; the trigger is still true.
  h.Deliver(2, proto::NodeJoinReq{2}, 1);
  EXPECT_TRUE(h.core().NodeAlive(2));
  EXPECT_EQ(h.core().epoch(), 2u);
  h.Tick(400);
  h.Tick(500);
  EXPECT_TRUE(h.Take<proto::DrainReq>().empty());
  EXPECT_FALSE(h.core().NodeDraining(2));
}

}  // namespace
}  // namespace dse::recovery
