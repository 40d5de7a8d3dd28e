// Wire-protocol codec: every message type round-trips; malformed input is
// rejected cleanly.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dse/proto/messages.h"

namespace dse::proto {
namespace {

Envelope Env(Body body, std::uint64_t req_id = 7, NodeId src = 3) {
  Envelope env;
  env.req_id = req_id;
  env.src_node = src;
  env.body = std::move(body);
  return env;
}

// Encodes then decodes; returns the reconstructed envelope.
Envelope RoundTrip(const Envelope& env) {
  auto decoded = Decode(Encode(env));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->req_id, env.req_id);
  EXPECT_EQ(decoded->src_node, env.src_node);
  EXPECT_EQ(decoded->type(), env.type());
  return std::move(*decoded);
}

TEST(Proto, ReadReqRoundTrip) {
  const auto out = RoundTrip(Env(ReadReq{0xABCDEF, 128, true}));
  const auto& m = std::get<ReadReq>(out.body);
  EXPECT_EQ(m.addr, 0xABCDEFu);
  EXPECT_EQ(m.len, 128u);
  EXPECT_TRUE(m.block_fetch);
}

TEST(Proto, ReadRespRoundTrip) {
  ReadResp resp;
  resp.addr = 42;
  resp.data = {1, 2, 3};
  resp.block_fetch = false;
  const auto out = RoundTrip(Env(resp));
  const auto& m = std::get<ReadResp>(out.body);
  EXPECT_EQ(m.data, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(m.block_fetch);
}

TEST(Proto, WriteReqRoundTrip) {
  WriteReq req;
  req.addr = 9;
  req.data = std::vector<std::uint8_t>(1000, 0x5A);
  const auto out = RoundTrip(Env(req));
  EXPECT_EQ(std::get<WriteReq>(out.body).data.size(), 1000u);
}

TEST(Proto, EmptyBodiesRoundTrip) {
  RoundTrip(Env(WriteAck{}));
  RoundTrip(Env(PsReq{}));
  RoundTrip(Env(Shutdown{}));
}

TEST(Proto, AtomicRoundTrip) {
  AtomicReq req;
  req.op = AtomicOp::kCompareExchange;
  req.addr = 16;
  req.operand = -5;
  req.expected = 99;
  const auto out = RoundTrip(Env(req));
  const auto& m = std::get<AtomicReq>(out.body);
  EXPECT_EQ(m.op, AtomicOp::kCompareExchange);
  EXPECT_EQ(m.operand, -5);
  EXPECT_EQ(m.expected, 99);
  RoundTrip(Env(AtomicResp{-123}));
}

TEST(Proto, AllocFreeRoundTrip) {
  AllocReq req;
  req.size = 1 << 20;
  req.policy = HomePolicy::kOnNode;
  req.param = 4;
  const auto out = RoundTrip(Env(req));
  EXPECT_EQ(std::get<AllocReq>(out.body).param, 4);
  RoundTrip(Env(AllocResp{0xFF00, 0}));
  RoundTrip(Env(FreeReq{77}));
  RoundTrip(Env(FreeAck{1}));
}

TEST(Proto, SyncMessagesRoundTrip) {
  RoundTrip(Env(LockReq{101}));
  RoundTrip(Env(LockGrant{101}));
  RoundTrip(Env(UnlockReq{101}));
  const auto out = RoundTrip(Env(BarrierEnter{55, 8}));
  EXPECT_EQ(std::get<BarrierEnter>(out.body).parties, 8u);
  RoundTrip(Env(BarrierRelease{55}));
  RoundTrip(Env(InvalidateReq{4096}));
  RoundTrip(Env(InvalidateAck{4096}));
}

TEST(Proto, SpawnJoinRoundTrip) {
  SpawnReq req;
  req.task_name = "gauss.worker";
  req.arg = {9, 9, 9};
  const auto out = RoundTrip(Env(req));
  EXPECT_EQ(std::get<SpawnReq>(out.body).task_name, "gauss.worker");
  RoundTrip(Env(SpawnResp{MakeGpid(2, 5), 0}));
  RoundTrip(Env(JoinReq{MakeGpid(1, 1)}));
  JoinResp jr;
  jr.gpid = MakeGpid(1, 1);
  jr.result = {4, 5};
  const auto out2 = RoundTrip(Env(jr));
  EXPECT_EQ(std::get<JoinResp>(out2.body).result,
            (std::vector<std::uint8_t>{4, 5}));
}

TEST(Proto, PsRoundTrip) {
  PsResp resp;
  resp.entries.push_back(PsEntry{MakeGpid(0, 1), "main", 0});
  resp.entries.push_back(PsEntry{MakeGpid(3, 9), "worker", 1});
  const auto out = RoundTrip(Env(resp));
  const auto& m = std::get<PsResp>(out.body);
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[1].task_name, "worker");
  EXPECT_EQ(m.entries[1].state, 1);
}

TEST(Proto, NameServiceRoundTrip) {
  NamePublish pub;
  pub.name = "work.queue";
  pub.value = 0xDEADBEEF;
  const auto out = RoundTrip(Env(pub));
  EXPECT_EQ(std::get<NamePublish>(out.body).value, 0xDEADBEEFu);
  RoundTrip(Env(NameAck{0}));
  RoundTrip(Env(NameLookup{"work.queue"}));
  RoundTrip(Env(NameResp{77, 0}));
  EXPECT_TRUE(IsClientResponse(MsgType::kNameAck));
  EXPECT_TRUE(IsClientResponse(MsgType::kNameResp));
  EXPECT_FALSE(IsClientResponse(MsgType::kNamePublish));
  EXPECT_FALSE(IsClientResponse(MsgType::kNameLookup));
}

TEST(Proto, LoadQueryRoundTrip) {
  RoundTrip(Env(LoadReq{}));
  const auto out = RoundTrip(Env(LoadResp{17}));
  EXPECT_EQ(std::get<LoadResp>(out.body).running_tasks, 17u);
  EXPECT_TRUE(IsClientResponse(MsgType::kLoadResp));
  EXPECT_FALSE(IsClientResponse(MsgType::kLoadReq));
}

TEST(Proto, ConsoleRoundTrip) {
  const auto out = RoundTrip(Env(ConsoleOut{MakeGpid(2, 2), "hello SSI"}));
  EXPECT_EQ(std::get<ConsoleOut>(out.body).text, "hello SSI");
}

TEST(Proto, TypeOfMatchesAlternativeOrder) {
  EXPECT_EQ(TypeOf(Body{ReadReq{}}), MsgType::kReadReq);
  EXPECT_EQ(TypeOf(Body{Shutdown{}}), MsgType::kShutdown);
  EXPECT_EQ(TypeOf(Body{ConsoleOut{}}), MsgType::kConsoleOut);
}

TEST(Proto, ClientResponseClassification) {
  EXPECT_TRUE(IsClientResponse(MsgType::kReadResp));
  EXPECT_TRUE(IsClientResponse(MsgType::kWriteAck));
  EXPECT_TRUE(IsClientResponse(MsgType::kLockGrant));
  EXPECT_TRUE(IsClientResponse(MsgType::kBarrierRelease));
  EXPECT_TRUE(IsClientResponse(MsgType::kSpawnResp));
  EXPECT_TRUE(IsClientResponse(MsgType::kJoinResp));
  EXPECT_TRUE(IsClientResponse(MsgType::kPsResp));
  EXPECT_FALSE(IsClientResponse(MsgType::kReadReq));
  EXPECT_FALSE(IsClientResponse(MsgType::kInvalidateReq));
  EXPECT_FALSE(IsClientResponse(MsgType::kInvalidateAck));
  EXPECT_FALSE(IsClientResponse(MsgType::kConsoleOut));
  EXPECT_FALSE(IsClientResponse(MsgType::kShutdown));
}

TEST(Proto, NamesAreDistinct) {
  EXPECT_EQ(MsgTypeName(MsgType::kReadReq), "ReadReq");
  EXPECT_EQ(MsgTypeName(MsgType::kShutdown), "Shutdown");
}

TEST(Proto, EmptyBufferRejected) {
  EXPECT_FALSE(Decode({}).ok());
}

TEST(Proto, UnknownTypeRejected) {
  auto bytes = Encode(Env(Shutdown{}));
  bytes[0] = 200;  // no such MsgType
  const auto decoded = Decode(bytes);
  EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocolError);
}

TEST(Proto, TruncatedBodyRejected) {
  auto bytes = Encode(Env(ReadReq{1, 2, false}));
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(Proto, TrailingBytesRejected) {
  auto bytes = Encode(Env(LockReq{1}));
  bytes.push_back(0);
  EXPECT_EQ(Decode(bytes).status().code(), ErrorCode::kProtocolError);
}

TEST(Proto, BadAtomicOpRejected) {
  auto bytes = Encode(Env(AtomicReq{}));
  // Byte 17 is the op (1 type + 8 req_id + 4 src + 4 epoch).
  bytes[17] = 9;
  EXPECT_FALSE(Decode(bytes).ok());
}

// --- Membership / state-transfer frames (self-healing membership) -----------

TEST(Proto, NodeJoinRoundTrip) {
  const auto req = RoundTrip(Env(NodeJoinReq{3}, /*req_id=*/0));
  EXPECT_EQ(std::get<NodeJoinReq>(req.body).node, 3);

  NodeJoinResp resp;
  resp.node = 3;
  resp.epoch = 9;
  resp.alive = {1, 1, 0, 1};
  const auto out = RoundTrip(Env(resp, /*req_id=*/0));
  const auto& m = std::get<NodeJoinResp>(out.body);
  EXPECT_EQ(m.node, 3);
  EXPECT_EQ(m.epoch, 9u);
  EXPECT_EQ(m.alive, (std::vector<std::uint8_t>{1, 1, 0, 1}));
  // Control frames, not client responses: they must never release an RPC.
  EXPECT_FALSE(IsClientResponse(MsgType::kNodeJoinReq));
  EXPECT_FALSE(IsClientResponse(MsgType::kNodeJoinResp));
}

TEST(Proto, StateChunkRoundTrip) {
  StateChunkReq chunk;
  chunk.primary = 2;
  chunk.epoch = 4;
  chunk.index = 7;
  chunk.total = 12;
  chunk.data = std::vector<std::uint8_t>(8192, 0xA7);
  chunk.next_seq = 0x1122334455667788ULL;  // all 8 bytes significant
  const auto out = RoundTrip(Env(chunk, /*req_id=*/0));
  const auto& m = std::get<StateChunkReq>(out.body);
  EXPECT_EQ(m.primary, 2);
  EXPECT_EQ(m.epoch, 4u);
  EXPECT_EQ(m.index, 7u);
  EXPECT_EQ(m.total, 12u);
  EXPECT_EQ(m.next_seq, 0x1122334455667788ULL);
  EXPECT_EQ(m.data.size(), 8192u);
  EXPECT_EQ(m.data[4096], 0xA7);

  const auto ack = RoundTrip(Env(StateChunkResp{2, 7}, /*req_id=*/0));
  EXPECT_EQ(std::get<StateChunkResp>(ack.body).index, 7u);
  EXPECT_FALSE(IsClientResponse(MsgType::kStateChunkReq));
  EXPECT_FALSE(IsClientResponse(MsgType::kStateChunkResp));
}

TEST(Proto, EmptyStateChunkRoundTrip) {
  // A rejoiner whose home held nothing still gets a (dataless) handoff.
  StateChunkReq chunk;
  chunk.primary = 1;
  chunk.total = 1;
  const auto out = RoundTrip(Env(chunk, /*req_id=*/0));
  EXPECT_TRUE(std::get<StateChunkReq>(out.body).data.empty());
}

// The serving front door's job frames: every field survives the wire,
// including the -1 "no preference" locality hint and an empty payload.
TEST(Proto, JobSubmitRoundTrip) {
  JobSubmitReq req;
  req.tenant = 5;
  req.task_name = "sched.tenant";
  req.arg = {0xDE, 0xAD, 0xBE, 0xEF};
  req.gang = 3;
  req.locality_hint = 2;
  const auto out = RoundTrip(Env(req));
  const auto& m = std::get<JobSubmitReq>(out.body);
  EXPECT_EQ(m.tenant, 5u);
  EXPECT_EQ(m.task_name, "sched.tenant");
  EXPECT_EQ(m.arg, (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
  EXPECT_EQ(m.gang, 3u);
  EXPECT_EQ(m.locality_hint, 2);

  JobSubmitReq hintless;
  hintless.task_name = "x";
  const auto out2 = RoundTrip(Env(hintless));
  EXPECT_EQ(std::get<JobSubmitReq>(out2.body).locality_hint, -1);
  EXPECT_TRUE(std::get<JobSubmitReq>(out2.body).arg.empty());

  const auto resp = RoundTrip(Env(JobSubmitResp{0x1234567890ABCDEFull, 5}));
  const auto& r = std::get<JobSubmitResp>(resp.body);
  EXPECT_EQ(r.job_id, 0x1234567890ABCDEFull);
  EXPECT_EQ(r.error, 5);
  EXPECT_TRUE(IsClientResponse(MsgType::kJobSubmitResp));
}

TEST(Proto, JobStartDoneRoundTrip) {
  // Both directions of the scheduler<->host leg are one-way (req_id 0).
  JobStartReq start;
  start.job_id = 42;
  start.member = 7;
  start.task_name = "sched.tenant";
  start.arg = std::vector<std::uint8_t>(256, 0x11);
  const auto out = RoundTrip(Env(start, /*req_id=*/0));
  const auto& m = std::get<JobStartReq>(out.body);
  EXPECT_EQ(m.job_id, 42u);
  EXPECT_EQ(m.member, 7u);
  EXPECT_EQ(m.task_name, "sched.tenant");
  EXPECT_EQ(m.arg.size(), 256u);
  EXPECT_EQ(m.arg[128], 0x11);

  const auto done = RoundTrip(Env(JobDoneReq{42, 7}, /*req_id=*/0));
  EXPECT_EQ(std::get<JobDoneReq>(done.body).job_id, 42u);
  EXPECT_EQ(std::get<JobDoneReq>(done.body).member, 7u);
  EXPECT_FALSE(IsClientResponse(MsgType::kJobStartReq));
  EXPECT_FALSE(IsClientResponse(MsgType::kJobDoneReq));
}

TEST(Proto, SchedStatRoundTrip) {
  RoundTrip(Env(SchedStatReq{}));
  SchedStatResp resp;
  resp.counters = {{"sched.admitted", 12},
                   {"sched.completed", 10},
                   {"sched.tenant.0.admitted", 6}};
  const auto out = RoundTrip(Env(resp));
  const auto& m = std::get<SchedStatResp>(out.body);
  EXPECT_EQ(m.counters.size(), 3u);
  EXPECT_EQ(m.counters.at("sched.admitted"), 12u);
  EXPECT_EQ(m.counters.at("sched.tenant.0.admitted"), 6u);
  EXPECT_TRUE(IsClientResponse(MsgType::kSchedStatResp));
}

// The planned-maintenance admin verbs (docs/recovery.md): both directions
// are one-way control frames carrying the target node and the epoch the
// sender observed.
TEST(Proto, DrainRoundTrip) {
  const auto req = RoundTrip(Env(DrainReq{2, 7}, /*req_id=*/0));
  EXPECT_EQ(std::get<DrainReq>(req.body).node, 2);
  EXPECT_EQ(std::get<DrainReq>(req.body).epoch, 7u);

  const auto resp = RoundTrip(Env(DrainResp{2, 7}, /*req_id=*/0));
  EXPECT_EQ(std::get<DrainResp>(resp.body).node, 2);
  EXPECT_EQ(std::get<DrainResp>(resp.body).epoch, 7u);

  // Defaults survive too (a drain of an unresolved target is still a frame).
  const auto blank = RoundTrip(Env(DrainReq{}, /*req_id=*/0));
  EXPECT_EQ(std::get<DrainReq>(blank.body).node, -1);
  EXPECT_EQ(std::get<DrainReq>(blank.body).epoch, 0u);

  // Control frames, not client responses: they must never release an RPC.
  EXPECT_FALSE(IsClientResponse(MsgType::kDrainReq));
  EXPECT_FALSE(IsClientResponse(MsgType::kDrainResp));
  EXPECT_EQ(MsgTypeName(MsgType::kDrainReq), "DrainReq");
  EXPECT_EQ(MsgTypeName(MsgType::kDrainResp), "DrainResp");
}

// Every prefix of the new frames' encodings must decode to a clean error —
// the fault injector truncates frames at arbitrary byte counts and the
// recovery path feeds survivors whatever arrives.
TEST(Proto, MembershipFramesRejectEveryTruncation) {
  StateChunkReq chunk;
  chunk.primary = 1;
  chunk.epoch = 2;
  chunk.index = 0;
  chunk.total = 3;
  chunk.data = {9, 8, 7, 6, 5};
  chunk.next_seq = 41;
  NodeJoinResp resp;
  resp.node = 2;
  resp.epoch = 5;
  resp.alive = {1, 0, 1};
  JobSubmitReq submit;
  submit.tenant = 3;
  submit.task_name = "sched.tenant";
  submit.arg = {1, 2, 3, 4};
  submit.gang = 2;
  submit.locality_hint = 1;
  JobStartReq start;
  start.job_id = 11;
  start.member = 1;
  start.task_name = "sched.tenant";
  start.arg = {1, 2, 3, 4};
  SchedStatResp stat;
  stat.counters = {{"sched.admitted", 4}, {"sched.completed", 3}};
  const std::vector<Body> bodies = {
      NodeJoinReq{1},     resp,           chunk, StateChunkResp{1, 2},
      submit,             JobSubmitResp{11, 0},  start,
      JobDoneReq{11, 1},  SchedStatReq{}, stat,  DrainReq{2, 6},
      DrainResp{2, 6}};
  for (const Body& body : bodies) {
    const auto bytes = Encode(Env(body, /*req_id=*/0));
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> prefix(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
      EXPECT_FALSE(Decode(prefix).ok())
          << MsgTypeName(TypeOf(body)) << " accepted a " << cut
          << "-byte prefix of " << bytes.size();
    }
  }
}

// Seeded byte-flip fuzz: a corrupted membership frame must either decode (a
// flip in a value field) or fail with a Status — never crash or hang. The
// length-prefixed vectors inside are the dangerous part (a flipped length
// must not drive a huge allocation or an out-of-range read).
TEST(Proto, MembershipFramesSurviveByteFlipFuzz) {
  StateChunkReq chunk;
  chunk.primary = 0;
  chunk.epoch = 1;
  chunk.index = 2;
  chunk.total = 4;
  chunk.data = std::vector<std::uint8_t>(64, 0x3C);
  chunk.next_seq = 1ULL << 40;
  NodeJoinResp resp;
  resp.node = 1;
  resp.epoch = 2;
  resp.alive = {1, 1, 1, 0};
  JobSubmitReq submit;
  submit.tenant = 1;
  submit.task_name = "sched.tenant";
  submit.arg = std::vector<std::uint8_t>(48, 0x5A);
  submit.gang = 4;
  JobStartReq start;
  start.job_id = 7;
  start.task_name = "sched.tenant";
  start.arg = std::vector<std::uint8_t>(48, 0x5A);
  SchedStatResp stat;
  stat.counters = {{"sched.admitted", 9}, {"sched.queue_depth", 2}};
  const std::vector<Body> bodies = {
      NodeJoinReq{2}, resp,  chunk,         StateChunkResp{0, 2},
      submit,         start, stat,          DrainReq{3, 2},
      DrainResp{3, 2}};
  Rng rng(0xC0FFEE);
  for (const Body& body : bodies) {
    const auto clean = Encode(Env(body, /*req_id=*/0));
    for (int trial = 0; trial < 200; ++trial) {
      auto bytes = clean;
      const size_t pos = rng.NextBelow(bytes.size());
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
      const auto decoded = Decode(bytes);  // outcome free, crash forbidden
      if (decoded.ok()) {
        EXPECT_EQ(Encode(*decoded).size(), bytes.size());
      }
    }
  }
}

TEST(Proto, GpidHelpers) {
  const Gpid g = MakeGpid(7, 123);
  EXPECT_EQ(GpidNode(g), 7);
  EXPECT_EQ(GpidSeq(g), 123u);
  EXPECT_EQ(GpidToString(g), "7.123");
}

// Round-trip every message type once more through a parameterized sweep so a
// newly added type that breaks symmetry is caught by name.
class ProtoAllTypes : public ::testing::TestWithParam<int> {};

TEST_P(ProtoAllTypes, EncodedSizeIsStable) {
  // Encoding the same envelope twice must be byte-identical (no hidden
  // nondeterminism in the codec).
  std::vector<Body> bodies = {
      ReadReq{1, 2, true}, ReadResp{}, WriteReq{}, WriteAck{}, AtomicReq{},
      AtomicResp{}, AllocReq{}, AllocResp{}, FreeReq{}, FreeAck{},
      InvalidateReq{}, InvalidateAck{}, LockReq{}, LockGrant{}, UnlockReq{},
      BarrierEnter{}, BarrierRelease{}, SpawnReq{}, SpawnResp{}, JoinReq{},
      JoinResp{}, PsReq{}, PsResp{}, ConsoleOut{}, Shutdown{}, NamePublish{},
      NameAck{}, NameLookup{}, NameResp{}, LoadReq{}, LoadResp{}, StatsReq{},
      StatsResp{{{"msg.sent.ReadReq", 3}, {"net.bytes_sent", 120}}},
      BatchReq{}, BatchResp{}, Heartbeat{},
      ReplicateReq{1, 9, 2, {5, 5}}, ReplicateAck{9}, EvictReq{2, 3},
      RetryResp{3, 2}, NodeJoinReq{1}, NodeJoinResp{1, 4, {1, 1, 0}},
      StateChunkReq{0, 4, 1, 2, {7, 7, 7}, 17}, StateChunkResp{0, 1},
      JobSubmitReq{1, "sched.tenant", {2, 2}, 2, 3}, JobSubmitResp{9, 5},
      JobStartReq{9, 1, "sched.tenant", {2, 2}}, JobDoneReq{9, 1},
      SchedStatReq{}, SchedStatResp{{{"sched.admitted", 4}}},
      DrainReq{2, 5}, DrainResp{2, 5}};
  ASSERT_EQ(bodies.size(), std::variant_size_v<Body>);
  const auto& body = bodies[static_cast<size_t>(GetParam())];
  const Envelope env = Env(body);
  EXPECT_EQ(Encode(env), Encode(env));
  RoundTrip(env);
}

INSTANTIATE_TEST_SUITE_P(EveryType, ProtoAllTypes, ::testing::Range(0, 52));

}  // namespace
}  // namespace dse::proto
