// DSE kernel wire protocol.
//
// Every kernel interaction is one request message and (for blocking
// operations) one response message carrying the same req_id — the paper's
// "global memory access request message create" / "response message analyze"
// module pair. Encoding is explicit little-endian (common/bytes.h) so
// heterogeneous nodes interoperate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "dse/gmm/addr.h"
#include "dse/ids.h"

namespace dse::proto {

enum class MsgType : std::uint8_t {
  // Global memory management.
  kReadReq = 1,
  kReadResp,
  kWriteReq,
  kWriteAck,
  kAtomicReq,
  kAtomicResp,
  kAllocReq,
  kAllocResp,
  kFreeReq,
  kFreeAck,
  kInvalidateReq,
  kInvalidateAck,
  // Synchronization.
  kLockReq,
  kLockGrant,
  kUnlockReq,
  kBarrierEnter,
  kBarrierRelease,
  // Parallel process management.
  kSpawnReq,
  kSpawnResp,
  kJoinReq,
  kJoinResp,
  // Single-system-image services.
  kPsReq,
  kPsResp,
  kConsoleOut,
  // Control.
  kShutdown,
  // SSI global name service (node 0).
  kNamePublish,
  kNameAck,
  kNameLookup,
  kNameResp,
  // SSI load query (for least-loaded process placement).
  kLoadReq,
  kLoadResp,
  // SSI cluster-wide introspection: a node's metrics-counter snapshot.
  kStatsReq,
  kStatsResp,
  // GMM data-plane fast path: several read/write sub-accesses homed on one
  // node coalesced into a single envelope (one protocol overhead per
  // destination instead of per access).
  kBatchReq,
  kBatchResp,
  // Failure detection: periodic liveness probe between node hosts. Handled
  // at the host service layer (it refreshes the sender's last-heard stamp);
  // never enters the kernel's request dispatch and has no response.
  kHeartbeat,
  // Recovery subsystem (docs/recovery.md). A primary forwards each mutating
  // GMM request to its backup as an epoch-stamped replication record and
  // holds the client reply until the backup acknowledges; on node death the
  // coordinator broadcasts an eviction and survivors bump their cluster
  // epoch. Requests stamped with a mismatched epoch bounce with kRetryResp
  // so in-flight clients re-resolve the home map and retry.
  kReplicateReq,
  kReplicateAck,
  kEvictReq,
  kRetryResp,
  // Self-healing membership (docs/recovery.md). An evicted node that comes
  // back asks the coordinator for re-admission; admission is broadcast under
  // a bumped epoch. State transfer (re-replication after a promotion, and
  // the home handoff back to a rejoined node) streams a serialized GmmHome
  // in ack-paced chunks.
  kNodeJoinReq,
  kNodeJoinResp,
  kStateChunkReq,
  kStateChunkResp,
  // Serving front door (docs/scheduling.md). A client submits a short job to
  // the scheduler node (node 0); the scheduler admits/queues/sheds it and,
  // once placed, fans one JobStartReq per gang member out to the chosen
  // hosts. Hosts report member completion back with JobDoneReq. SchedStat
  // exposes the scheduler's counter ledger for drain polling and benches.
  kJobSubmitReq,
  kJobSubmitResp,
  kJobStartReq,
  kJobDoneReq,
  kSchedStatReq,
  kSchedStatResp,
  // Planned node lifecycle (docs/recovery.md). DrainReq puts a node into the
  // draining membership state: the scheduler stops placing jobs there and the
  // node proactively hands its homes and shadows to its backup over the state
  // transfer machinery while still alive and serving. DrainResp is the
  // drained node's cutover-ready signal back to the coordinator, which then
  // evicts it under a bumped epoch — losslessly, since the successor already
  // holds everything.
  kDrainReq,
  kDrainResp,
};

// Highest MsgType value; message types are contiguous from 1, so fixed-size
// per-type counter tables are indexed by the raw enum value.
inline constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::kDrainResp);

std::string_view MsgTypeName(MsgType type);

// True for message types that answer a client's pending request (routed to
// the blocked task rather than into the kernel's server logic).
bool IsClientResponse(MsgType type);

// --- Message bodies --------------------------------------------------------

struct ReadReq {
  gmm::GlobalAddr addr = 0;
  std::uint32_t len = 0;
  // Block-granularity fetch for the client read cache: the home widens the
  // reply to the whole coherence block and records the reader in the
  // block's copyset.
  bool block_fetch = false;
};
struct ReadResp {
  gmm::GlobalAddr addr = 0;  // start of returned range (block base if widened)
  std::vector<std::uint8_t> data;
  bool block_fetch = false;
};

struct WriteReq {
  gmm::GlobalAddr addr = 0;
  std::vector<std::uint8_t> data;
};
struct WriteAck {};

enum class AtomicOp : std::uint8_t { kFetchAdd = 0, kCompareExchange = 1 };
struct AtomicReq {
  AtomicOp op = AtomicOp::kFetchAdd;
  gmm::GlobalAddr addr = 0;  // 8-byte slot
  std::int64_t operand = 0;  // add delta / desired value
  std::int64_t expected = 0; // compare-exchange only
};
struct AtomicResp {
  std::int64_t old_value = 0;  // value before the op (CAS succeeded iff == expected)
};

enum class HomePolicy : std::uint8_t { kOnNode = 0, kStriped = 1 };
struct AllocReq {
  std::uint64_t size = 0;
  HomePolicy policy = HomePolicy::kStriped;
  // kOnNode: target node; kStriped: log2 of the stripe block size.
  std::uint8_t param = 0;
};
struct AllocResp {
  gmm::GlobalAddr addr = 0;  // kNullAddr on failure
  std::uint8_t error = 0;    // ErrorCode as u8; 0 = OK
};

struct FreeReq {
  gmm::GlobalAddr addr = 0;
};
struct FreeAck {
  std::uint8_t error = 0;
};

struct InvalidateReq {
  gmm::GlobalAddr block_base = 0;
};
struct InvalidateAck {
  gmm::GlobalAddr block_base = 0;
};

struct LockReq {
  std::uint64_t lock_id = 0;
};
struct LockGrant {
  std::uint64_t lock_id = 0;
};
struct UnlockReq {
  std::uint64_t lock_id = 0;
};

struct BarrierEnter {
  std::uint64_t barrier_id = 0;
  std::uint32_t parties = 0;
};
struct BarrierRelease {
  std::uint64_t barrier_id = 0;
};

struct SpawnReq {
  std::string task_name;          // registered function
  std::vector<std::uint8_t> arg;  // application-serialized argument
};
struct SpawnResp {
  Gpid gpid = kNoGpid;
  std::uint8_t error = 0;  // e.g. unknown task name
};

struct JoinReq {
  Gpid gpid = kNoGpid;
};
struct JoinResp {
  Gpid gpid = kNoGpid;
  std::vector<std::uint8_t> result;
  std::uint8_t error = 0;  // unknown gpid
};

struct PsReq {};
struct PsEntry {
  Gpid gpid = kNoGpid;
  std::string task_name;
  std::uint8_t state = 0;  // pm::TaskState as u8
};
struct PsResp {
  std::vector<PsEntry> entries;
};

struct ConsoleOut {
  Gpid gpid = kNoGpid;
  std::string text;
};

struct Shutdown {};

// SSI name service: publish/lookup of 64-bit values (addresses, gpids)
// under cluster-wide string names, served by the master kernel.
struct NamePublish {
  std::string name;
  std::uint64_t value = 0;
};
struct NameAck {
  std::uint8_t error = 0;  // kAlreadyExists when the name is taken
};
struct NameLookup {
  std::string name;
};
struct NameResp {
  std::uint64_t value = 0;
  std::uint8_t error = 0;  // kNotFound
};

// SSI load query: how many DSE processes run on a node right now.
struct LoadReq {};
struct LoadResp {
  std::uint32_t running_tasks = 0;
};

// SSI introspection: asks a kernel for its metrics-counter snapshot. The
// reply carries name -> value pairs (sorted by name on the wire) so any node
// can aggregate a cluster-wide view over the normal request/response path.
struct StatsReq {};
struct StatsResp {
  std::map<std::string, std::uint64_t> counters;
};

// GMM fast-path batch: the client groups the sub-accesses of one logical
// Read/Write (plus any read-ahead) by home node and ships each group as one
// BatchReq. The home applies the items in order within a single Handle call
// and answers with one BatchResp whose items align 1:1 with the request's
// (writes produce an empty-data slot, i.e. a pure ack). Under coherence a
// write item may defer the whole BatchResp until its invalidation round
// completes, exactly like a standalone WriteReq defers its WriteAck.
enum class BatchOp : std::uint8_t { kRead = 0, kWrite = 1 };
struct BatchItem {
  BatchOp op = BatchOp::kRead;
  gmm::GlobalAddr addr = 0;
  std::uint32_t len = 0;           // kRead: bytes requested
  bool block_fetch = false;        // kRead: widen reply to the coherence block
  std::vector<std::uint8_t> data;  // kWrite: payload
};
struct BatchReq {
  std::vector<BatchItem> items;
};
struct BatchItemResp {
  gmm::GlobalAddr addr = 0;  // start of returned range (block base if widened)
  bool block_fetch = false;
  std::vector<std::uint8_t> data;  // empty for write acks
};
struct BatchResp {
  std::vector<BatchItemResp> items;
};

// Liveness probe (req_id 0, one-way). A node that stays silent past the
// heartbeat timeout is declared dead by its peers.
struct Heartbeat {};

// Primary -> backup replication record (req_id 0). `inner` is the Encode()
// of the original mutating request envelope; the backup re-executes it
// against a shadow GmmHome kept per primary. `seq` is a per-primary counter
// so the backup can acknowledge retransmissions without re-applying.
struct ReplicateReq {
  NodeId primary = -1;       // home whose shadow this record belongs to
  std::uint64_t seq = 0;     // primary-assigned, dedupes retransmissions
  std::uint32_t epoch = 0;   // cluster epoch the record was produced under
  std::vector<std::uint8_t> inner;
};
// Backup -> primary: record `seq` is durable in the shadow; the primary may
// now release any client replies it gated on this record.
struct ReplicateAck {
  std::uint64_t seq = 0;
};

// Coordinator -> survivors: `node` is dead; enter `epoch`. Idempotent — a
// receiver that already evicted `node` ignores the message.
struct EvictReq {
  NodeId node = -1;
  std::uint32_t epoch = 0;
};

// Epoch fence bounce: the request's envelope epoch did not match the
// responder's cluster epoch. Carries the responder's view so a lagging peer
// can catch up (`evicted` is the node removed at the responder's epoch, -1
// if the responder has evicted nobody).
struct RetryResp {
  std::uint32_t epoch = 0;
  NodeId evicted = -1;
};

// Evicted node -> coordinator (req_id 0): re-admit me. Bypasses the epoch
// fence — the joiner's epoch is stale by definition.
struct NodeJoinReq {
  NodeId node = -1;
};
// Coordinator -> everyone incl. the joiner (req_id 0): `node` is re-admitted
// under `epoch`. `alive` is the full membership bitmap at that epoch so the
// joiner (whose view is arbitrarily stale) installs the whole picture.
struct NodeJoinResp {
  NodeId node = -1;
  std::uint32_t epoch = 0;
  std::vector<std::uint8_t> alive;  // alive[n] != 0 => node n is a member
};

// State transfer (req_id 0): one ack-paced chunk of a serialized GmmHome.
// `primary` names whose home the bytes belong to; the receiver installs the
// reassembled blob as a shadow (re-replication) or as its own serving home
// (rejoin handoff). A chunk stamped with a stale epoch is dropped — the
// sender restarts the transfer under the new epoch on the next membership
// change. `next_seq` is the sender's next ReplicateReq seq when it took the
// snapshot: the sender's records below it are already inside the blob, so
// the receiver acks and skips them whenever they arrive.
struct StateChunkReq {
  NodeId primary = -1;
  std::uint32_t epoch = 0;
  std::uint32_t index = 0;
  std::uint32_t total = 0;
  std::vector<std::uint8_t> data;
  std::uint64_t next_seq = 0;
};
// Receiver -> sender: chunk `index` of `primary`'s transfer is in.
struct StateChunkResp {
  NodeId primary = -1;
  std::uint32_t index = 0;
};

// Client -> scheduler (node 0): admit one job of `gang` members of
// registered task `task_name`. Epoch-fenced and deduped like any client
// request, so a retried submit after a membership change is admitted at most
// once. `locality_hint` (>= 0) asks placement to prefer that node when slots
// are otherwise tied.
struct JobSubmitReq {
  std::uint32_t tenant = 0;
  std::string task_name;
  std::vector<std::uint8_t> arg;
  std::uint32_t gang = 1;
  NodeId locality_hint = -1;
};
// Scheduler -> client. `error` is an ErrorCode as u8: 0 = admitted (queued
// or started), kResourceExhausted = shed by admission control (retry later),
// kInvalidArgument = the gang can never fit the live cluster.
struct JobSubmitResp {
  std::uint64_t job_id = 0;
  std::uint8_t error = 0;
};
// Scheduler -> host (req_id 0, one-way): start gang member `member` of
// `job_id` here. The receiver creates a local process for `task_name(arg)`
// and reports completion with JobDoneReq to the sender.
struct JobStartReq {
  std::uint64_t job_id = 0;
  std::uint32_t member = 0;
  std::string task_name;
  std::vector<std::uint8_t> arg;
};
// Host -> scheduler (req_id 0, one-way): gang member finished.
struct JobDoneReq {
  std::uint64_t job_id = 0;
  std::uint32_t member = 0;
};
// Client -> scheduler: snapshot the sched.* counter ledger (admitted,
// completed, queue depth, ...). Same wire shape as StatsResp.
struct SchedStatReq {};
struct SchedStatResp {
  std::map<std::string, std::uint64_t> counters;
};

// Coordinator -> everyone incl. the target (req_id 0, one-way): `node` is
// draining. Receivers stop placing work there; the target starts handing its
// homes and shadows to its ring successor. Idempotent; stamped with the epoch
// the drain was requested under.
struct DrainReq {
  NodeId node = -1;
  std::uint32_t epoch = 0;
};
// Draining node -> coordinator (req_id 0, one-way): every home and shadow is
// handed off and acknowledged — cutover (the planned eviction) may proceed.
// Re-sent each transfer tick until the eviction lands, so a lost frame only
// delays the cutover.
struct DrainResp {
  NodeId node = -1;
  std::uint32_t epoch = 0;
};

using Body =
    std::variant<ReadReq, ReadResp, WriteReq, WriteAck, AtomicReq, AtomicResp,
                 AllocReq, AllocResp, FreeReq, FreeAck, InvalidateReq,
                 InvalidateAck, LockReq, LockGrant, UnlockReq, BarrierEnter,
                 BarrierRelease, SpawnReq, SpawnResp, JoinReq, JoinResp, PsReq,
                 PsResp, ConsoleOut, Shutdown, NamePublish, NameAck,
                 NameLookup, NameResp, LoadReq, LoadResp, StatsReq,
                 StatsResp, BatchReq, BatchResp, Heartbeat, ReplicateReq,
                 ReplicateAck, EvictReq, RetryResp, NodeJoinReq, NodeJoinResp,
                 StateChunkReq, StateChunkResp, JobSubmitReq, JobSubmitResp,
                 JobStartReq, JobDoneReq, SchedStatReq, SchedStatResp,
                 DrainReq, DrainResp>;

MsgType TypeOf(const Body& body);

// --- Envelope ---------------------------------------------------------------

// One kernel message. `req_id` is unique per (src_node, request); responses
// echo the request's req_id and src routing happens via the transport.
// `epoch` is the sender's cluster-membership epoch (always 0 while no node
// has been evicted); kernels running with replication reject mismatched
// requests with kRetryResp so clients re-resolve the home map.
struct Envelope {
  std::uint64_t req_id = 0;
  NodeId src_node = -1;
  Body body;
  // Declared after `body` so the ubiquitous {req_id, src, body} aggregate
  // initialization keeps working; on the wire it sits before the body.
  std::uint32_t epoch = 0;

  MsgType type() const { return TypeOf(body); }
};

// Serializes to transport payload bytes.
std::vector<std::uint8_t> Encode(const Envelope& env);

// Parses payload bytes (kProtocolError on malformed input).
Result<Envelope> Decode(const std::vector<std::uint8_t>& payload);

}  // namespace dse::proto
