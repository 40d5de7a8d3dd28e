// TaskClient unit tests against a scripted RpcTransport: exactly which
// requests go to which homes, how accesses split, and how the cache changes
// the request stream.
#include <deque>

#include <gtest/gtest.h>

#include "dse/client.h"

namespace dse {
namespace {

// Records every outbound message and answers each request at once, from a
// script (or with a synthesized plausible reply).
class MockRpc final : public RpcTransport {
 public:
  struct Sent {
    NodeId dst;
    proto::Envelope env;
  };

  std::uint64_t NextReqId() override { return next_id_++; }
  void Register(std::uint64_t, NodeId) override {}
  void Unregister(std::uint64_t) override {}
  Status Send(NodeId dst, const proto::Envelope& env) override {
    sent.push_back(Sent{dst, env});
    if (env.req_id == 0) return Status::Ok();  // one-way post
    proto::Envelope resp;
    if (!scripted.empty()) {
      resp = std::move(scripted.front());
      scripted.pop_front();
    } else {
      resp = Synthesize(env);
    }
    resp.req_id = env.req_id;
    inbox_.push_back(RpcArrival{env.req_id, std::move(resp)});
    return Status::Ok();
  }
  std::int64_t NowNs() override { return 0; }
  std::optional<RpcArrival> Await(std::int64_t) override {
    if (inbox_.empty()) return std::nullopt;
    RpcArrival arrival = std::move(inbox_.front());
    inbox_.pop_front();
    return arrival;
  }
  void Pause(int) override {}
  void OnBounce(NodeId, const proto::RetryResp&) override {}

  std::vector<Sent> sent;
  std::deque<proto::Envelope> scripted;

 private:
  // Default replies that keep the client happy.
  proto::Envelope Synthesize(const proto::Envelope& req) {
    proto::Envelope resp;
    resp.req_id = req.req_id;
    resp.src_node = 1;
    switch (req.type()) {
      case proto::MsgType::kReadReq: {
        const auto& r = std::get<proto::ReadReq>(req.body);
        proto::ReadResp body;
        if (r.block_fetch) {
          body.addr = gmm::BlockBaseOf(r.addr);
          body.data.assign(gmm::BlockBytesOf(r.addr), 0x11);
          body.block_fetch = true;
        } else {
          body.addr = r.addr;
          body.data.assign(r.len, 0x11);
        }
        resp.body = std::move(body);
        break;
      }
      case proto::MsgType::kWriteReq:
        resp.body = proto::WriteAck{};
        break;
      case proto::MsgType::kAtomicReq:
        resp.body = proto::AtomicResp{5};
        break;
      case proto::MsgType::kLockReq:
        resp.body = proto::LockGrant{
            std::get<proto::LockReq>(req.body).lock_id};
        break;
      case proto::MsgType::kBarrierEnter:
        resp.body = proto::BarrierRelease{
            std::get<proto::BarrierEnter>(req.body).barrier_id};
        break;
      case proto::MsgType::kAllocReq:
        resp.body = proto::AllocResp{
            gmm::MakeAddr(gmm::AddrKind::kStriped, 10, 0), 0};
        break;
      default:
        resp.body = proto::WriteAck{};  // wrong on purpose for error paths
        break;
    }
    return resp;
  }

  std::uint64_t next_id_ = 1;
  std::deque<RpcArrival> inbox_;
};

KernelCore MakeCore(bool cache, NodeId self = 0, int nodes = 4) {
  KernelOptions opts;
  opts.read_cache = cache;
  return KernelCore(self, nodes, std::move(opts));
}

TEST(TaskClientRouting, StripedReadHitsEveryHomeOnce) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);

  // 4 KiB over 1 KiB stripes and 4 nodes: exactly one read per home.
  const gmm::GlobalAddr addr = gmm::MakeAddr(gmm::AddrKind::kStriped, 10, 0);
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(client.Read(addr, out.data(), out.size()).ok());
  ASSERT_EQ(rpc.sent.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rpc.sent[static_cast<size_t>(i)].dst, i);
    const auto& req =
        std::get<proto::ReadReq>(rpc.sent[static_cast<size_t>(i)].env.body);
    EXPECT_EQ(req.len, 1024u);
    EXPECT_FALSE(req.block_fetch);
  }
  // Data landed.
  EXPECT_EQ(out[0], 0x11);
  EXPECT_EQ(out[4095], 0x11);
}

TEST(TaskClientRouting, HomedWriteIsOneMessage) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  const gmm::GlobalAddr addr = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 2, 0);
  std::vector<std::uint8_t> data(10000, 0x7);
  ASSERT_TRUE(client.Write(addr, data.data(), data.size()).ok());
  ASSERT_EQ(rpc.sent.size(), 1u);
  EXPECT_EQ(rpc.sent[0].dst, 2);
  EXPECT_EQ(std::get<proto::WriteReq>(rpc.sent[0].env.body).data.size(),
            10000u);
}

TEST(TaskClientRouting, CacheSplitsHomedAccessesAtBlocks) {
  MockRpc rpc;
  KernelCore core = MakeCore(true);
  TaskClient client(&rpc, &core);
  // 2.5 coherence blocks on remote node 1: three block fetches.
  const gmm::GlobalAddr addr = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 1, 0);
  std::vector<std::uint8_t> out(2560);
  ASSERT_TRUE(client.Read(addr, out.data(), out.size()).ok());
  ASSERT_EQ(rpc.sent.size(), 3u);
  for (const auto& s : rpc.sent) {
    EXPECT_TRUE(std::get<proto::ReadReq>(s.env.body).block_fetch);
  }
}

TEST(TaskClientRouting, LocallyHomedDataIsNeverBlockFetched) {
  MockRpc rpc;
  KernelCore core = MakeCore(true, /*self=*/1);
  TaskClient client(&rpc, &core);
  const gmm::GlobalAddr addr = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 1, 0);
  std::uint8_t out[64];
  ASSERT_TRUE(client.Read(addr, out, sizeof(out)).ok());
  ASSERT_EQ(rpc.sent.size(), 1u);
  EXPECT_FALSE(std::get<proto::ReadReq>(rpc.sent[0].env.body).block_fetch);
}

TEST(TaskClientRouting, LockAndBarrierRouteByIdModNodes) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  ASSERT_TRUE(client.Lock(7).ok());      // 7 % 4 == 3
  ASSERT_TRUE(client.Unlock(7).ok());
  ASSERT_TRUE(client.Barrier(6, 2).ok());  // 6 % 4 == 2
  EXPECT_EQ(rpc.sent[0].dst, 3);
  EXPECT_EQ(rpc.sent[1].dst, 3);
  EXPECT_EQ(rpc.sent[2].dst, 2);
  // Unlock is one-way.
  EXPECT_EQ(rpc.sent[1].env.req_id, 0u);
}

TEST(TaskClientRouting, AtomicGoesToSlotHome) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  const gmm::GlobalAddr addr =
      gmm::MakeAddr(gmm::AddrKind::kStriped, 10, 3 * 1024);
  EXPECT_EQ(client.AtomicFetchAdd(addr, 1).value(), 5);
  EXPECT_EQ(rpc.sent[0].dst, 3);
}

TEST(TaskClientRouting, SpawnRoundRobinSkipsNothing) {
  MockRpc rpc;
  KernelCore core = MakeCore(false, /*self=*/1);
  TaskClient client(&rpc, &core);
  rpc.scripted.push_back(
      proto::Envelope{0, 0, proto::SpawnResp{MakeGpid(2, 1), 0}});
  rpc.scripted.push_back(
      proto::Envelope{0, 0, proto::SpawnResp{MakeGpid(3, 1), 0}});
  rpc.scripted.push_back(
      proto::Envelope{0, 0, proto::SpawnResp{MakeGpid(0, 1), 0}});
  (void)client.Spawn("t", {}, -1);
  (void)client.Spawn("t", {}, -1);
  (void)client.Spawn("t", {}, -1);
  // Default placement starts after self and wraps.
  EXPECT_EQ(rpc.sent[0].dst, 2);
  EXPECT_EQ(rpc.sent[1].dst, 3);
  EXPECT_EQ(rpc.sent[2].dst, 0);
}

TEST(TaskClientErrors, WrongResponseTypeIsProtocolError) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  rpc.scripted.push_back(proto::Envelope{0, 0, proto::LockGrant{1}});
  std::uint8_t out[8];
  const Status s =
      client.Read(gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 1, 0), out, 8);
  EXPECT_EQ(s.code(), ErrorCode::kProtocolError);
}

TEST(TaskClientErrors, ShortReadReplyIsProtocolError) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  proto::ReadResp bad;
  bad.addr = 0;
  bad.data = {1};  // one byte instead of eight
  rpc.scripted.push_back(proto::Envelope{0, 0, bad});
  std::uint8_t out[8];
  const Status s =
      client.Read(gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 1, 0), out, 8);
  EXPECT_EQ(s.code(), ErrorCode::kProtocolError);
}

TEST(TaskClientErrors, ErrorCodesSurface) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  rpc.scripted.push_back(proto::Envelope{
      0, 0,
      proto::AllocResp{0, static_cast<std::uint8_t>(
                              ErrorCode::kResourceExhausted)}});
  EXPECT_EQ(client.AllocStriped(64, 10).status().code(),
            ErrorCode::kResourceExhausted);

  rpc.scripted.push_back(proto::Envelope{
      0, 0,
      proto::SpawnResp{0, static_cast<std::uint8_t>(ErrorCode::kNotFound)}});
  EXPECT_EQ(client.Spawn("x", {}, 1).status().code(), ErrorCode::kNotFound);
}

TEST(TaskClientErrors, BarrierNeedsPositiveParties) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  EXPECT_EQ(client.Barrier(1, 0).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(rpc.sent.empty());
}

TEST(TaskClientErrors, SpawnHintOutOfRange) {
  MockRpc rpc;
  KernelCore core = MakeCore(false);
  TaskClient client(&rpc, &core);
  EXPECT_FALSE(client.Spawn("x", {}, 9).ok());
  EXPECT_TRUE(rpc.sent.empty());
}

TEST(TaskClientCache, SecondReadServedLocally) {
  MockRpc rpc;
  KernelCore core = MakeCore(true);
  TaskClient client(&rpc, &core);
  const gmm::GlobalAddr addr = gmm::MakeAddr(gmm::AddrKind::kStriped, 10, 1024);
  std::uint8_t out[16];
  ASSERT_TRUE(client.Read(addr, out, sizeof(out)).ok());
  ASSERT_EQ(rpc.sent.size(), 1u);
  // The mock delivered a block-fetch reply; mirror the service path insert.
  core.CacheInsert(gmm::BlockBaseOf(addr),
                   std::vector<std::uint8_t>(1024, 0x11));
  ASSERT_TRUE(client.Read(addr, out, sizeof(out)).ok());
  EXPECT_EQ(rpc.sent.size(), 1u);  // no new request
  EXPECT_EQ(out[0], 0x11);
}

}  // namespace
}  // namespace dse
