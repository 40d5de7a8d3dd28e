// RpcEngine against a fake transport with a scripted clock: the one copy of
// the deadline / resend / backoff / bounce / failover / abandonment rules
// every runtime runs.
#include "dse/rpc_engine.h"

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "dse/recovery/recovery.h"

namespace dse {
namespace {

constexpr std::int64_t kMs = 1000000;

// Replies are scheduled straight into the mailbox at a virtual time, as if
// each one won the race against its call's abandonment; Await() advances
// the clock to the next reply or to the deadline, Pause() by its length.
class FakeTransport final : public RpcTransport {
 public:
  struct Sent {
    std::int64_t at_ns;
    NodeId dst;
    proto::Envelope env;
  };

  // Reaction to every send (normally: schedule the reply).
  std::function<void(const Sent&)> on_send;
  std::function<void(NodeId, const proto::RetryResp&)> on_bounce;

  void Reply(std::int64_t at_ns, std::uint64_t req_id,
             Result<proto::Envelope> outcome) {
    scheduled_.push_back({at_ns, RpcArrival{req_id, std::move(outcome)}});
  }
  // Reply with AtomicResp{value}, `delay_ms` after now.
  void ReplyValue(std::uint64_t req_id, std::int64_t value, int delay_ms,
                  NodeId from = 1) {
    Reply(now_ + delay_ms * kMs, req_id,
          proto::Envelope{req_id, from, proto::AtomicResp{value}});
  }

  std::uint64_t NextReqId() override { return next_id_++; }
  void Register(std::uint64_t req_id, NodeId) override {
    registered.insert(req_id);
  }
  void Unregister(std::uint64_t req_id) override {
    registered.erase(req_id);
    unregistered.push_back(req_id);
  }
  Status Send(NodeId dst, const proto::Envelope& env) override {
    sent.push_back(Sent{now_, dst, env});
    if (on_send) on_send(sent.back());
    return Status::Ok();
  }
  std::int64_t NowNs() override { return now_; }
  std::optional<RpcArrival> Await(std::int64_t deadline_ns) override {
    auto next = scheduled_.end();
    for (auto it = scheduled_.begin(); it != scheduled_.end(); ++it) {
      if (next == scheduled_.end() || it->first < next->first) next = it;
    }
    if (next == scheduled_.end() || next->first > deadline_ns) {
      if (deadline_ns == kNoDeadline) {
        ADD_FAILURE() << "unbounded wait with nothing scheduled";
      } else {
        now_ = std::max(now_, deadline_ns);
      }
      return std::nullopt;
    }
    now_ = std::max(now_, next->first);
    RpcArrival arrival = std::move(next->second);
    scheduled_.erase(next);
    registered.erase(arrival.req_id);  // delivery consumes the registration
    return arrival;
  }
  void Pause(int ms) override {
    pauses.push_back(ms);
    now_ += ms * kMs;
  }
  void OnBounce(NodeId responder, const proto::RetryResp& rr) override {
    if (on_bounce) on_bounce(responder, rr);
  }

  std::vector<Sent> sent;
  std::vector<int> pauses;
  std::set<std::uint64_t> registered;
  std::vector<std::uint64_t> unregistered;

 private:
  std::int64_t now_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<std::pair<std::int64_t, RpcArrival>> scheduled_;
};

KernelCore MakeCore(int replication = 0) {
  KernelOptions opts;
  opts.replication = replication;
  return KernelCore(/*self=*/0, /*num_nodes=*/4, std::move(opts));
}

std::uint64_t CounterValue(KernelCore& core, const char* name) {
  return core.metrics().counter(name)->value();
}

std::int64_t ValueOf(const proto::Envelope& env) {
  return std::get<proto::AtomicResp>(env.body).old_value;
}

TEST(RpcEngine, TimeoutResendsSameReqIdWithDoublingBackoffCappedAt1s) {
  FakeTransport t;
  KernelCore core = MakeCore();
  RpcEngine engine(&t, &core);
  t.on_send = [&](const FakeTransport::Sent& s) {
    if (t.sent.size() == 6) t.ReplyValue(s.env.req_id, 42, 1);
  };
  const CallPolicy policy{/*deadline_ms=*/10, /*max_attempts=*/6,
                          /*backoff_base_ms=*/300};
  auto resp = engine.Call(1, proto::PsReq{}, policy);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(ValueOf(*resp), 42);
  ASSERT_EQ(t.sent.size(), 6u);
  for (const auto& s : t.sent) {
    EXPECT_EQ(s.env.req_id, t.sent[0].env.req_id);
    EXPECT_EQ(s.dst, 1);
  }
  EXPECT_EQ(t.pauses, (std::vector<int>{300, 600, 1000, 1000, 1000}));
  // Each resend follows its attempt's deadline plus the backoff.
  EXPECT_EQ(t.sent[1].at_ns, (10 + 300) * kMs);
  EXPECT_EQ(t.sent[2].at_ns, (310 + 10 + 600) * kMs);
  EXPECT_EQ(CounterValue(core, "rpc.timeout"), 5u);
  EXPECT_EQ(CounterValue(core, "rpc.retry"), 5u);
  EXPECT_TRUE(t.registered.empty());
}

TEST(RpcEngine, FinalTimeoutAbandonsCallAndLateReplyIsStale) {
  FakeTransport t;
  KernelCore core = MakeCore();
  RpcEngine engine(&t, &core);
  // The first call's reply only ever comes back 50 ms after its resend,
  // long past the final deadline.
  t.on_send = [&](const FakeTransport::Sent& s) {
    if (s.env.req_id == 1 && t.sent.size() == 2) {
      t.ReplyValue(1, 111, 50);
    } else if (s.env.req_id == 2) {
      t.ReplyValue(2, 222, 60);
    }
  };
  auto first = engine.Call(1, proto::PsReq{}, CallPolicy{10, 2, 5});
  EXPECT_EQ(first.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(CounterValue(core, "rpc.timeout"), 2u);
  EXPECT_EQ(CounterValue(core, "rpc.retry"), 1u);
  EXPECT_EQ(t.unregistered, (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(t.registered.empty());

  // The late reply reaches the mailbox before the next call's own reply;
  // it is counted and dropped, never handed to that call.
  auto second = engine.Call(2, proto::PsReq{}, CallPolicy{100, 1, 5});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(ValueOf(*second), 222);
  EXPECT_EQ(CounterValue(core, "rpc.stale_resp"), 1u);
}

TEST(RpcEngine, EpochBounceRestampsReroutesAndResends) {
  FakeTransport t;
  KernelCore core = MakeCore(/*replication=*/1);
  RpcEngine engine(&t, &core);
  const std::uint32_t e0 = core.epoch();
  // The request reaches a node one epoch ahead, which has evicted node 2 in
  // favour of its ring successor 3 and bounces it; the bounce hook adopts
  // that eviction.
  t.on_send = [&](const FakeTransport::Sent& s) {
    if (t.sent.size() == 1) {
      t.Reply(s.at_ns + kMs, s.env.req_id,
              proto::Envelope{s.env.req_id, 1,
                              proto::RetryResp{e0 + 1, /*evicted=*/2}});
    } else {
      t.ReplyValue(s.env.req_id, 7, 1, s.dst);
    }
  };
  int bounces = 0;
  t.on_bounce = [&](NodeId responder, const proto::RetryResp& rr) {
    ++bounces;
    EXPECT_EQ(responder, 1);
    (void)core.ApplyEviction(rr.evicted, rr.epoch);
  };
  auto resp = engine.Call(2, proto::PsReq{}, CallPolicy{10, 1, 5});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(ValueOf(*resp), 7);
  EXPECT_EQ(bounces, 1);
  ASSERT_EQ(t.sent.size(), 2u);
  EXPECT_EQ(t.sent[0].dst, 2);
  EXPECT_EQ(t.sent[0].env.epoch, e0);
  EXPECT_EQ(t.sent[1].dst, 3);
  EXPECT_EQ(t.sent[1].env.epoch, e0 + 1);
  EXPECT_EQ(t.sent[1].env.req_id, t.sent[0].env.req_id);
  EXPECT_EQ(t.pauses, (std::vector<int>{recovery::kFailoverPauseMs}));
  EXPECT_EQ(CounterValue(core, "recovery.client_retries"), 1u);
  EXPECT_EQ(CounterValue(core, "rpc.retry"), 0u);  // failovers spend no attempts
  EXPECT_TRUE(t.registered.empty());
}

TEST(RpcEngine, UnavailableFailsOverUnderReplication) {
  FakeTransport t;
  KernelCore core = MakeCore(/*replication=*/1);
  RpcEngine engine(&t, &core);
  // The runtime declares node 2 dead mid-call and evicts it.
  t.on_send = [&](const FakeTransport::Sent& s) {
    if (t.sent.size() == 1) {
      (void)core.ApplyEviction(2, core.epoch() + 1);
      t.Reply(s.at_ns + kMs, s.env.req_id, Unavailable("node 2 is dead"));
    } else {
      t.ReplyValue(s.env.req_id, 9, 1, s.dst);
    }
  };
  auto resp = engine.Call(2, proto::PsReq{}, CallPolicy{10, 1, 5});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(ValueOf(*resp), 9);
  ASSERT_EQ(t.sent.size(), 2u);
  EXPECT_EQ(t.sent[1].dst, 3);
  EXPECT_EQ(t.pauses, (std::vector<int>{recovery::kFailoverPauseMs}));
  EXPECT_TRUE(t.registered.empty());
}

TEST(RpcEngine, UnavailableSurfacesWithoutReplication) {
  FakeTransport t;
  KernelCore core = MakeCore();
  RpcEngine engine(&t, &core);
  t.on_send = [&](const FakeTransport::Sent& s) {
    t.Reply(s.at_ns + kMs, s.env.req_id, Unavailable("node 2 is dead"));
  };
  auto resp = engine.Call(2, proto::PsReq{}, CallPolicy{10, 3, 5});
  EXPECT_EQ(resp.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(t.sent.size(), 1u);
  EXPECT_TRUE(t.pauses.empty());
  EXPECT_TRUE(t.registered.empty());
}

TEST(RpcEngine, CallManyReturnsRequestOrderForOutOfOrderReplies) {
  FakeTransport t;
  KernelCore core = MakeCore();
  RpcEngine engine(&t, &core);
  const int delay_ms[] = {0, 30, 10, 20};  // by destination
  t.on_send = [&](const FakeTransport::Sent& s) {
    t.ReplyValue(s.env.req_id, s.dst, delay_ms[s.dst], s.dst);
  };
  std::vector<std::pair<NodeId, proto::Body>> calls;
  for (NodeId n = 1; n <= 3; ++n) calls.emplace_back(n, proto::PsReq{});
  auto resps = engine.CallMany(std::move(calls), CallPolicy{100, 1, 5});
  ASSERT_TRUE(resps.ok()) << resps.status().ToString();
  ASSERT_EQ(resps->size(), 3u);
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_EQ(ValueOf((*resps)[static_cast<size_t>(n - 1)]), n);
  }
  // Every request went out before the first reply was awaited.
  ASSERT_EQ(t.sent.size(), 3u);
  for (const auto& s : t.sent) EXPECT_EQ(s.at_ns, 0);
  EXPECT_EQ(t.NowNs(), 30 * kMs);
}

TEST(RpcEngine, CallManySharesOneDeadlinePerAttempt) {
  FakeTransport t;
  KernelCore core = MakeCore();
  RpcEngine engine(&t, &core);
  std::vector<std::pair<NodeId, proto::Body>> calls;
  for (NodeId n = 1; n <= 3; ++n) calls.emplace_back(n, proto::PsReq{});
  // Nobody answers: three calls surface kTimeout after one call's budget
  // (two 10 ms attempts and one 5 ms backoff), not three times that.
  auto resps = engine.CallMany(std::move(calls), CallPolicy{10, 2, 5});
  EXPECT_EQ(resps.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(t.NowNs(), 25 * kMs);
  EXPECT_EQ(t.sent.size(), 6u);
  EXPECT_EQ(CounterValue(core, "rpc.timeout"), 6u);
  EXPECT_EQ(CounterValue(core, "rpc.retry"), 3u);
  EXPECT_TRUE(t.registered.empty());
}

TEST(RpcEngine, PostIsOneWayAndRouted) {
  FakeTransport t;
  KernelCore core = MakeCore(/*replication=*/1);
  RpcEngine engine(&t, &core);
  (void)core.ApplyEviction(2, core.epoch() + 1);
  ASSERT_TRUE(engine.Post(2, proto::UnlockReq{5}).ok());
  ASSERT_EQ(t.sent.size(), 1u);
  EXPECT_EQ(t.sent[0].dst, 3);
  EXPECT_EQ(t.sent[0].env.req_id, 0u);
  EXPECT_EQ(t.sent[0].env.epoch, core.epoch());
  EXPECT_TRUE(t.registered.empty());
}

}  // namespace
}  // namespace dse
