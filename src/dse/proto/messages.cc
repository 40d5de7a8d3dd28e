#include "dse/proto/messages.h"

#include "common/bytes.h"
#include "common/check.h"

namespace dse::proto {
namespace {

// --- Per-body encoders ------------------------------------------------------

void Put(ByteWriter& w, const ReadReq& m) {
  w.WriteU64(m.addr);
  w.WriteU32(m.len);
  w.WriteU8(m.block_fetch ? 1 : 0);
}
void Put(ByteWriter& w, const ReadResp& m) {
  w.WriteU64(m.addr);
  w.WriteBytes({reinterpret_cast<const char*>(m.data.data()), m.data.size()});
  w.WriteU8(m.block_fetch ? 1 : 0);
}
void Put(ByteWriter& w, const WriteReq& m) {
  w.WriteU64(m.addr);
  w.WriteBytes({reinterpret_cast<const char*>(m.data.data()), m.data.size()});
}
void Put(ByteWriter&, const WriteAck&) {}
void Put(ByteWriter& w, const AtomicReq& m) {
  w.WriteU8(static_cast<std::uint8_t>(m.op));
  w.WriteU64(m.addr);
  w.WriteI64(m.operand);
  w.WriteI64(m.expected);
}
void Put(ByteWriter& w, const AtomicResp& m) { w.WriteI64(m.old_value); }
void Put(ByteWriter& w, const AllocReq& m) {
  w.WriteU64(m.size);
  w.WriteU8(static_cast<std::uint8_t>(m.policy));
  w.WriteU8(m.param);
}
void Put(ByteWriter& w, const AllocResp& m) {
  w.WriteU64(m.addr);
  w.WriteU8(m.error);
}
void Put(ByteWriter& w, const FreeReq& m) { w.WriteU64(m.addr); }
void Put(ByteWriter& w, const FreeAck& m) { w.WriteU8(m.error); }
void Put(ByteWriter& w, const InvalidateReq& m) { w.WriteU64(m.block_base); }
void Put(ByteWriter& w, const InvalidateAck& m) { w.WriteU64(m.block_base); }
void Put(ByteWriter& w, const LockReq& m) { w.WriteU64(m.lock_id); }
void Put(ByteWriter& w, const LockGrant& m) { w.WriteU64(m.lock_id); }
void Put(ByteWriter& w, const UnlockReq& m) { w.WriteU64(m.lock_id); }
void Put(ByteWriter& w, const BarrierEnter& m) {
  w.WriteU64(m.barrier_id);
  w.WriteU32(m.parties);
}
void Put(ByteWriter& w, const BarrierRelease& m) { w.WriteU64(m.barrier_id); }
void Put(ByteWriter& w, const SpawnReq& m) {
  w.WriteString(m.task_name);
  w.WriteBytes({reinterpret_cast<const char*>(m.arg.data()), m.arg.size()});
}
void Put(ByteWriter& w, const SpawnResp& m) {
  w.WriteU64(m.gpid);
  w.WriteU8(m.error);
}
void Put(ByteWriter& w, const JoinReq& m) { w.WriteU64(m.gpid); }
void Put(ByteWriter& w, const JoinResp& m) {
  w.WriteU64(m.gpid);
  w.WriteBytes(
      {reinterpret_cast<const char*>(m.result.data()), m.result.size()});
  w.WriteU8(m.error);
}
void Put(ByteWriter&, const PsReq&) {}
void Put(ByteWriter& w, const PsResp& m) {
  w.WriteU32(static_cast<std::uint32_t>(m.entries.size()));
  for (const PsEntry& e : m.entries) {
    w.WriteU64(e.gpid);
    w.WriteString(e.task_name);
    w.WriteU8(e.state);
  }
}
void Put(ByteWriter& w, const ConsoleOut& m) {
  w.WriteU64(m.gpid);
  w.WriteString(m.text);
}
void Put(ByteWriter&, const Shutdown&) {}
void Put(ByteWriter& w, const NamePublish& m) {
  w.WriteString(m.name);
  w.WriteU64(m.value);
}
void Put(ByteWriter& w, const NameAck& m) { w.WriteU8(m.error); }
void Put(ByteWriter& w, const NameLookup& m) { w.WriteString(m.name); }
void Put(ByteWriter& w, const NameResp& m) {
  w.WriteU64(m.value);
  w.WriteU8(m.error);
}
void Put(ByteWriter&, const LoadReq&) {}
void Put(ByteWriter& w, const LoadResp& m) { w.WriteU32(m.running_tasks); }
void Put(ByteWriter&, const StatsReq&) {}
void Put(ByteWriter& w, const StatsResp& m) {
  w.WriteU32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, value] : m.counters) {  // map: sorted, stable wire
    w.WriteString(name);
    w.WriteU64(value);
  }
}

// --- Per-body decoders ------------------------------------------------------

Status Get(ByteReader& r, ReadReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->addr));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->len));
  std::uint8_t flag;
  DSE_RETURN_IF_ERROR(r.ReadU8(&flag));
  m->block_fetch = flag != 0;
  return Status::Ok();
}
Status Get(ByteReader& r, ReadResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->addr));
  DSE_RETURN_IF_ERROR(r.ReadBytes(&m->data));
  std::uint8_t flag;
  DSE_RETURN_IF_ERROR(r.ReadU8(&flag));
  m->block_fetch = flag != 0;
  return Status::Ok();
}
Status Get(ByteReader& r, WriteReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->addr));
  return r.ReadBytes(&m->data);
}
Status Get(ByteReader&, WriteAck*) { return Status::Ok(); }
Status Get(ByteReader& r, AtomicReq* m) {
  std::uint8_t op = 0;
  DSE_RETURN_IF_ERROR(r.ReadU8(&op));
  if (op > static_cast<std::uint8_t>(AtomicOp::kCompareExchange)) {
    return ProtocolError("bad atomic op");
  }
  m->op = static_cast<AtomicOp>(op);
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->addr));
  DSE_RETURN_IF_ERROR(r.ReadI64(&m->operand));
  return r.ReadI64(&m->expected);
}
Status Get(ByteReader& r, AtomicResp* m) { return r.ReadI64(&m->old_value); }
Status Get(ByteReader& r, AllocReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->size));
  std::uint8_t policy = 0;
  DSE_RETURN_IF_ERROR(r.ReadU8(&policy));
  if (policy > static_cast<std::uint8_t>(HomePolicy::kStriped)) {
    return ProtocolError("bad home policy");
  }
  m->policy = static_cast<HomePolicy>(policy);
  return r.ReadU8(&m->param);
}
Status Get(ByteReader& r, AllocResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->addr));
  return r.ReadU8(&m->error);
}
Status Get(ByteReader& r, FreeReq* m) { return r.ReadU64(&m->addr); }
Status Get(ByteReader& r, FreeAck* m) { return r.ReadU8(&m->error); }
Status Get(ByteReader& r, InvalidateReq* m) {
  return r.ReadU64(&m->block_base);
}
Status Get(ByteReader& r, InvalidateAck* m) {
  return r.ReadU64(&m->block_base);
}
Status Get(ByteReader& r, LockReq* m) { return r.ReadU64(&m->lock_id); }
Status Get(ByteReader& r, LockGrant* m) { return r.ReadU64(&m->lock_id); }
Status Get(ByteReader& r, UnlockReq* m) { return r.ReadU64(&m->lock_id); }
Status Get(ByteReader& r, BarrierEnter* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->barrier_id));
  return r.ReadU32(&m->parties);
}
Status Get(ByteReader& r, BarrierRelease* m) {
  return r.ReadU64(&m->barrier_id);
}
Status Get(ByteReader& r, SpawnReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadString(&m->task_name));
  return r.ReadBytes(&m->arg);
}
Status Get(ByteReader& r, SpawnResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->gpid));
  return r.ReadU8(&m->error);
}
Status Get(ByteReader& r, JoinReq* m) { return r.ReadU64(&m->gpid); }
Status Get(ByteReader& r, JoinResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->gpid));
  DSE_RETURN_IF_ERROR(r.ReadBytes(&m->result));
  return r.ReadU8(&m->error);
}
Status Get(ByteReader&, PsReq*) { return Status::Ok(); }
Status Get(ByteReader& r, PsResp* m) {
  std::uint32_t n = 0;
  DSE_RETURN_IF_ERROR(r.ReadU32(&n));
  m->entries.clear();
  m->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PsEntry e;
    DSE_RETURN_IF_ERROR(r.ReadU64(&e.gpid));
    DSE_RETURN_IF_ERROR(r.ReadString(&e.task_name));
    DSE_RETURN_IF_ERROR(r.ReadU8(&e.state));
    m->entries.push_back(std::move(e));
  }
  return Status::Ok();
}
Status Get(ByteReader& r, ConsoleOut* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->gpid));
  return r.ReadString(&m->text);
}
Status Get(ByteReader&, Shutdown*) { return Status::Ok(); }
Status Get(ByteReader& r, NamePublish* m) {
  DSE_RETURN_IF_ERROR(r.ReadString(&m->name));
  return r.ReadU64(&m->value);
}
Status Get(ByteReader& r, NameAck* m) { return r.ReadU8(&m->error); }
Status Get(ByteReader& r, NameLookup* m) { return r.ReadString(&m->name); }
Status Get(ByteReader& r, NameResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->value));
  return r.ReadU8(&m->error);
}
Status Get(ByteReader&, LoadReq*) { return Status::Ok(); }
Status Get(ByteReader& r, LoadResp* m) { return r.ReadU32(&m->running_tasks); }
Status Get(ByteReader& r, BatchReq* m) {
  std::uint32_t n = 0;
  DSE_RETURN_IF_ERROR(r.ReadU32(&n));
  m->items.clear();
  m->items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    BatchItem item;
    std::uint8_t op = 0;
    DSE_RETURN_IF_ERROR(r.ReadU8(&op));
    if (op > static_cast<std::uint8_t>(BatchOp::kWrite)) {
      return ProtocolError("bad batch op");
    }
    item.op = static_cast<BatchOp>(op);
    DSE_RETURN_IF_ERROR(r.ReadU64(&item.addr));
    DSE_RETURN_IF_ERROR(r.ReadU32(&item.len));
    std::uint8_t flag = 0;
    DSE_RETURN_IF_ERROR(r.ReadU8(&flag));
    item.block_fetch = flag != 0;
    DSE_RETURN_IF_ERROR(r.ReadBytes(&item.data));
    m->items.push_back(std::move(item));
  }
  return Status::Ok();
}
Status Get(ByteReader& r, BatchResp* m) {
  std::uint32_t n = 0;
  DSE_RETURN_IF_ERROR(r.ReadU32(&n));
  m->items.clear();
  m->items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    BatchItemResp item;
    DSE_RETURN_IF_ERROR(r.ReadU64(&item.addr));
    std::uint8_t flag = 0;
    DSE_RETURN_IF_ERROR(r.ReadU8(&flag));
    item.block_fetch = flag != 0;
    DSE_RETURN_IF_ERROR(r.ReadBytes(&item.data));
    m->items.push_back(std::move(item));
  }
  return Status::Ok();
}
Status Get(ByteReader&, StatsReq*) { return Status::Ok(); }
Status Get(ByteReader& r, StatsResp* m) {
  std::uint32_t n = 0;
  DSE_RETURN_IF_ERROR(r.ReadU32(&n));
  m->counters.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    DSE_RETURN_IF_ERROR(r.ReadString(&name));
    DSE_RETURN_IF_ERROR(r.ReadU64(&value));
    m->counters.emplace(std::move(name), value);
  }
  return Status::Ok();
}

void Put(ByteWriter& w, const BatchReq& m) {
  w.WriteU32(static_cast<std::uint32_t>(m.items.size()));
  for (const BatchItem& item : m.items) {
    w.WriteU8(static_cast<std::uint8_t>(item.op));
    w.WriteU64(item.addr);
    w.WriteU32(item.len);
    w.WriteU8(item.block_fetch ? 1 : 0);
    w.WriteBytes(
        {reinterpret_cast<const char*>(item.data.data()), item.data.size()});
  }
}
void Put(ByteWriter& w, const BatchResp& m) {
  w.WriteU32(static_cast<std::uint32_t>(m.items.size()));
  for (const BatchItemResp& item : m.items) {
    w.WriteU64(item.addr);
    w.WriteU8(item.block_fetch ? 1 : 0);
    w.WriteBytes(
        {reinterpret_cast<const char*>(item.data.data()), item.data.size()});
  }
}

void Put(ByteWriter&, const Heartbeat&) {}
Status Get(ByteReader&, Heartbeat*) { return Status::Ok(); }

void Put(ByteWriter& w, const ReplicateReq& m) {
  w.WriteI32(m.primary);
  w.WriteU64(m.seq);
  w.WriteU32(m.epoch);
  w.WriteBytes(
      {reinterpret_cast<const char*>(m.inner.data()), m.inner.size()});
}
Status Get(ByteReader& r, ReplicateReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadI32(&m->primary));
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->seq));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->epoch));
  return r.ReadBytes(&m->inner);
}
void Put(ByteWriter& w, const ReplicateAck& m) { w.WriteU64(m.seq); }
Status Get(ByteReader& r, ReplicateAck* m) { return r.ReadU64(&m->seq); }
void Put(ByteWriter& w, const EvictReq& m) {
  w.WriteI32(m.node);
  w.WriteU32(m.epoch);
}
Status Get(ByteReader& r, EvictReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadI32(&m->node));
  return r.ReadU32(&m->epoch);
}
void Put(ByteWriter& w, const RetryResp& m) {
  w.WriteU32(m.epoch);
  w.WriteI32(m.evicted);
}
Status Get(ByteReader& r, RetryResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->epoch));
  return r.ReadI32(&m->evicted);
}
void Put(ByteWriter& w, const NodeJoinReq& m) { w.WriteI32(m.node); }
Status Get(ByteReader& r, NodeJoinReq* m) { return r.ReadI32(&m->node); }
void Put(ByteWriter& w, const NodeJoinResp& m) {
  w.WriteI32(m.node);
  w.WriteU32(m.epoch);
  w.WriteBytes(
      {reinterpret_cast<const char*>(m.alive.data()), m.alive.size()});
}
Status Get(ByteReader& r, NodeJoinResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadI32(&m->node));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->epoch));
  return r.ReadBytes(&m->alive);
}
void Put(ByteWriter& w, const StateChunkReq& m) {
  w.WriteI32(m.primary);
  w.WriteU32(m.epoch);
  w.WriteU32(m.index);
  w.WriteU32(m.total);
  w.WriteU64(m.next_seq);
  w.WriteBytes({reinterpret_cast<const char*>(m.data.data()), m.data.size()});
}
Status Get(ByteReader& r, StateChunkReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadI32(&m->primary));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->epoch));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->index));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->total));
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->next_seq));
  return r.ReadBytes(&m->data);
}
void Put(ByteWriter& w, const StateChunkResp& m) {
  w.WriteI32(m.primary);
  w.WriteU32(m.index);
}
Status Get(ByteReader& r, StateChunkResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadI32(&m->primary));
  return r.ReadU32(&m->index);
}

void Put(ByteWriter& w, const JobSubmitReq& m) {
  w.WriteU32(m.tenant);
  w.WriteString(m.task_name);
  w.WriteBytes({reinterpret_cast<const char*>(m.arg.data()), m.arg.size()});
  w.WriteU32(m.gang);
  w.WriteI32(m.locality_hint);
}
Status Get(ByteReader& r, JobSubmitReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->tenant));
  DSE_RETURN_IF_ERROR(r.ReadString(&m->task_name));
  DSE_RETURN_IF_ERROR(r.ReadBytes(&m->arg));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->gang));
  return r.ReadI32(&m->locality_hint);
}
void Put(ByteWriter& w, const JobSubmitResp& m) {
  w.WriteU64(m.job_id);
  w.WriteU8(m.error);
}
Status Get(ByteReader& r, JobSubmitResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->job_id));
  return r.ReadU8(&m->error);
}
void Put(ByteWriter& w, const JobStartReq& m) {
  w.WriteU64(m.job_id);
  w.WriteU32(m.member);
  w.WriteString(m.task_name);
  w.WriteBytes({reinterpret_cast<const char*>(m.arg.data()), m.arg.size()});
}
Status Get(ByteReader& r, JobStartReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->job_id));
  DSE_RETURN_IF_ERROR(r.ReadU32(&m->member));
  DSE_RETURN_IF_ERROR(r.ReadString(&m->task_name));
  return r.ReadBytes(&m->arg);
}
void Put(ByteWriter& w, const JobDoneReq& m) {
  w.WriteU64(m.job_id);
  w.WriteU32(m.member);
}
Status Get(ByteReader& r, JobDoneReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadU64(&m->job_id));
  return r.ReadU32(&m->member);
}
void Put(ByteWriter&, const SchedStatReq&) {}
Status Get(ByteReader&, SchedStatReq*) { return Status::Ok(); }
void Put(ByteWriter& w, const SchedStatResp& m) {
  w.WriteU32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, value] : m.counters) {  // map: sorted, stable wire
    w.WriteString(name);
    w.WriteU64(value);
  }
}
Status Get(ByteReader& r, SchedStatResp* m) {
  std::uint32_t n = 0;
  DSE_RETURN_IF_ERROR(r.ReadU32(&n));
  m->counters.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    DSE_RETURN_IF_ERROR(r.ReadString(&name));
    DSE_RETURN_IF_ERROR(r.ReadU64(&value));
    m->counters.emplace(std::move(name), value);
  }
  return Status::Ok();
}
void Put(ByteWriter& w, const DrainReq& m) {
  w.WriteI32(m.node);
  w.WriteU32(m.epoch);
}
Status Get(ByteReader& r, DrainReq* m) {
  DSE_RETURN_IF_ERROR(r.ReadI32(&m->node));
  return r.ReadU32(&m->epoch);
}
void Put(ByteWriter& w, const DrainResp& m) {
  w.WriteI32(m.node);
  w.WriteU32(m.epoch);
}
Status Get(ByteReader& r, DrainResp* m) {
  DSE_RETURN_IF_ERROR(r.ReadI32(&m->node));
  return r.ReadU32(&m->epoch);
}

template <typename T, MsgType kType>
struct Tag {
  using type = T;
  static constexpr MsgType value = kType;
};

}  // namespace

std::string_view MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kReadReq: return "ReadReq";
    case MsgType::kReadResp: return "ReadResp";
    case MsgType::kWriteReq: return "WriteReq";
    case MsgType::kWriteAck: return "WriteAck";
    case MsgType::kAtomicReq: return "AtomicReq";
    case MsgType::kAtomicResp: return "AtomicResp";
    case MsgType::kAllocReq: return "AllocReq";
    case MsgType::kAllocResp: return "AllocResp";
    case MsgType::kFreeReq: return "FreeReq";
    case MsgType::kFreeAck: return "FreeAck";
    case MsgType::kInvalidateReq: return "InvalidateReq";
    case MsgType::kInvalidateAck: return "InvalidateAck";
    case MsgType::kLockReq: return "LockReq";
    case MsgType::kLockGrant: return "LockGrant";
    case MsgType::kUnlockReq: return "UnlockReq";
    case MsgType::kBarrierEnter: return "BarrierEnter";
    case MsgType::kBarrierRelease: return "BarrierRelease";
    case MsgType::kSpawnReq: return "SpawnReq";
    case MsgType::kSpawnResp: return "SpawnResp";
    case MsgType::kJoinReq: return "JoinReq";
    case MsgType::kJoinResp: return "JoinResp";
    case MsgType::kPsReq: return "PsReq";
    case MsgType::kPsResp: return "PsResp";
    case MsgType::kConsoleOut: return "ConsoleOut";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kNamePublish: return "NamePublish";
    case MsgType::kNameAck: return "NameAck";
    case MsgType::kNameLookup: return "NameLookup";
    case MsgType::kNameResp: return "NameResp";
    case MsgType::kLoadReq: return "LoadReq";
    case MsgType::kLoadResp: return "LoadResp";
    case MsgType::kStatsReq: return "StatsReq";
    case MsgType::kStatsResp: return "StatsResp";
    case MsgType::kBatchReq: return "BatchReq";
    case MsgType::kBatchResp: return "BatchResp";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kReplicateReq: return "ReplicateReq";
    case MsgType::kReplicateAck: return "ReplicateAck";
    case MsgType::kEvictReq: return "EvictReq";
    case MsgType::kRetryResp: return "RetryResp";
    case MsgType::kNodeJoinReq: return "NodeJoinReq";
    case MsgType::kNodeJoinResp: return "NodeJoinResp";
    case MsgType::kStateChunkReq: return "StateChunkReq";
    case MsgType::kStateChunkResp: return "StateChunkResp";
    case MsgType::kJobSubmitReq: return "JobSubmitReq";
    case MsgType::kJobSubmitResp: return "JobSubmitResp";
    case MsgType::kJobStartReq: return "JobStartReq";
    case MsgType::kJobDoneReq: return "JobDoneReq";
    case MsgType::kSchedStatReq: return "SchedStatReq";
    case MsgType::kSchedStatResp: return "SchedStatResp";
    case MsgType::kDrainReq: return "DrainReq";
    case MsgType::kDrainResp: return "DrainResp";
  }
  return "Unknown";
}

bool IsClientResponse(MsgType type) {
  switch (type) {
    case MsgType::kReadResp:
    case MsgType::kWriteAck:
    case MsgType::kAtomicResp:
    case MsgType::kAllocResp:
    case MsgType::kFreeAck:
    case MsgType::kLockGrant:
    case MsgType::kBarrierRelease:
    case MsgType::kSpawnResp:
    case MsgType::kJoinResp:
    case MsgType::kPsResp:
    case MsgType::kNameAck:
    case MsgType::kNameResp:
    case MsgType::kLoadResp:
    case MsgType::kStatsResp:
    case MsgType::kBatchResp:
    case MsgType::kRetryResp:
    case MsgType::kJobSubmitResp:
    case MsgType::kSchedStatResp:
      return true;
    default:
      return false;
  }
}

MsgType TypeOf(const Body& body) {
  // The variant's alternative order matches the MsgType enumeration.
  return static_cast<MsgType>(body.index() + 1);
}

std::vector<std::uint8_t> Encode(const Envelope& env) {
  ByteWriter w(64);
  w.WriteU8(static_cast<std::uint8_t>(env.type()));
  w.WriteU64(env.req_id);
  w.WriteI32(env.src_node);
  w.WriteU32(env.epoch);
  std::visit([&w](const auto& body) { Put(w, body); }, env.body);
  return w.TakeBuffer();
}

namespace {

template <typename T>
Result<Envelope> DecodeBody(ByteReader& r, Envelope env) {
  T body;
  const Status s = Get(r, &body);
  if (!s.ok()) return s;
  if (!r.AtEnd()) return ProtocolError("trailing bytes in message");
  env.body = std::move(body);
  return env;
}

}  // namespace

Result<Envelope> Decode(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  std::uint8_t type_raw;
  Envelope env;
  Status s = r.ReadU8(&type_raw);
  if (!s.ok()) return s;
  s = r.ReadU64(&env.req_id);
  if (!s.ok()) return s;
  s = r.ReadI32(&env.src_node);
  if (!s.ok()) return s;
  s = r.ReadU32(&env.epoch);
  if (!s.ok()) return s;

  switch (static_cast<MsgType>(type_raw)) {
    case MsgType::kReadReq: return DecodeBody<ReadReq>(r, std::move(env));
    case MsgType::kReadResp: return DecodeBody<ReadResp>(r, std::move(env));
    case MsgType::kWriteReq: return DecodeBody<WriteReq>(r, std::move(env));
    case MsgType::kWriteAck: return DecodeBody<WriteAck>(r, std::move(env));
    case MsgType::kAtomicReq: return DecodeBody<AtomicReq>(r, std::move(env));
    case MsgType::kAtomicResp:
      return DecodeBody<AtomicResp>(r, std::move(env));
    case MsgType::kAllocReq: return DecodeBody<AllocReq>(r, std::move(env));
    case MsgType::kAllocResp: return DecodeBody<AllocResp>(r, std::move(env));
    case MsgType::kFreeReq: return DecodeBody<FreeReq>(r, std::move(env));
    case MsgType::kFreeAck: return DecodeBody<FreeAck>(r, std::move(env));
    case MsgType::kInvalidateReq:
      return DecodeBody<InvalidateReq>(r, std::move(env));
    case MsgType::kInvalidateAck:
      return DecodeBody<InvalidateAck>(r, std::move(env));
    case MsgType::kLockReq: return DecodeBody<LockReq>(r, std::move(env));
    case MsgType::kLockGrant: return DecodeBody<LockGrant>(r, std::move(env));
    case MsgType::kUnlockReq: return DecodeBody<UnlockReq>(r, std::move(env));
    case MsgType::kBarrierEnter:
      return DecodeBody<BarrierEnter>(r, std::move(env));
    case MsgType::kBarrierRelease:
      return DecodeBody<BarrierRelease>(r, std::move(env));
    case MsgType::kSpawnReq: return DecodeBody<SpawnReq>(r, std::move(env));
    case MsgType::kSpawnResp: return DecodeBody<SpawnResp>(r, std::move(env));
    case MsgType::kJoinReq: return DecodeBody<JoinReq>(r, std::move(env));
    case MsgType::kJoinResp: return DecodeBody<JoinResp>(r, std::move(env));
    case MsgType::kPsReq: return DecodeBody<PsReq>(r, std::move(env));
    case MsgType::kPsResp: return DecodeBody<PsResp>(r, std::move(env));
    case MsgType::kConsoleOut:
      return DecodeBody<ConsoleOut>(r, std::move(env));
    case MsgType::kShutdown: return DecodeBody<Shutdown>(r, std::move(env));
    case MsgType::kNamePublish:
      return DecodeBody<NamePublish>(r, std::move(env));
    case MsgType::kNameAck: return DecodeBody<NameAck>(r, std::move(env));
    case MsgType::kNameLookup:
      return DecodeBody<NameLookup>(r, std::move(env));
    case MsgType::kNameResp: return DecodeBody<NameResp>(r, std::move(env));
    case MsgType::kLoadReq: return DecodeBody<LoadReq>(r, std::move(env));
    case MsgType::kLoadResp: return DecodeBody<LoadResp>(r, std::move(env));
    case MsgType::kStatsReq: return DecodeBody<StatsReq>(r, std::move(env));
    case MsgType::kStatsResp:
      return DecodeBody<StatsResp>(r, std::move(env));
    case MsgType::kBatchReq: return DecodeBody<BatchReq>(r, std::move(env));
    case MsgType::kBatchResp: return DecodeBody<BatchResp>(r, std::move(env));
    case MsgType::kHeartbeat: return DecodeBody<Heartbeat>(r, std::move(env));
    case MsgType::kReplicateReq:
      return DecodeBody<ReplicateReq>(r, std::move(env));
    case MsgType::kReplicateAck:
      return DecodeBody<ReplicateAck>(r, std::move(env));
    case MsgType::kEvictReq: return DecodeBody<EvictReq>(r, std::move(env));
    case MsgType::kRetryResp: return DecodeBody<RetryResp>(r, std::move(env));
    case MsgType::kNodeJoinReq:
      return DecodeBody<NodeJoinReq>(r, std::move(env));
    case MsgType::kNodeJoinResp:
      return DecodeBody<NodeJoinResp>(r, std::move(env));
    case MsgType::kStateChunkReq:
      return DecodeBody<StateChunkReq>(r, std::move(env));
    case MsgType::kStateChunkResp:
      return DecodeBody<StateChunkResp>(r, std::move(env));
    case MsgType::kJobSubmitReq:
      return DecodeBody<JobSubmitReq>(r, std::move(env));
    case MsgType::kJobSubmitResp:
      return DecodeBody<JobSubmitResp>(r, std::move(env));
    case MsgType::kJobStartReq:
      return DecodeBody<JobStartReq>(r, std::move(env));
    case MsgType::kJobDoneReq:
      return DecodeBody<JobDoneReq>(r, std::move(env));
    case MsgType::kSchedStatReq:
      return DecodeBody<SchedStatReq>(r, std::move(env));
    case MsgType::kSchedStatResp:
      return DecodeBody<SchedStatResp>(r, std::move(env));
    case MsgType::kDrainReq: return DecodeBody<DrainReq>(r, std::move(env));
    case MsgType::kDrainResp:
      return DecodeBody<DrainResp>(r, std::move(env));
  }
  return ProtocolError("unknown message type " + std::to_string(type_raw));
}

}  // namespace dse::proto
