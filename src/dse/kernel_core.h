// The DSE kernel, transport-free.
//
// One KernelCore per node. It is the "parallel processing engine" of the
// paper's Figure 2/3, combining:
//   * the global memory management module (GmmHome),
//   * the parallel process management module (ProcessTable),
//   * the client-side read cache (coherence extension),
//   * the SSI services facade (src/dse/ssi/: console routing, cluster ps,
//     name service, load query, metrics snapshot query),
//   * the replica path (src/dse/recovery/replica.h: replication, state
//     transfer, join admission, drain), behind routing, the epoch fence and
//     the at-most-once cache, which stay here.
//
// The backends (ThreadedRuntime, SimRuntime) own the message loop; they feed
// inbound server-side messages into Handle() and carry out the returned
// Actions (sends, local task starts, console lines, shutdown). Client
// *responses* never reach the core — backends route them straight to the
// blocked task — with one exception: every response passes through
// FillCacheFrom() on its receive path, in its sender's send order, so
// block-fetch cache fills stay ordered with invalidations.
//
// Observability: the core owns the node's MetricsRegistry. Backends count
// per-type message traffic via CountSent/CountRecv and wire bytes via
// CountWireSent/CountWireRecv at their transport choke points;
// StatsSnapshot() merges those live counters with the kernel/GMM stats
// structs into the flat map served over the StatsReq/StatsResp pair.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "dse/gmm/home.h"
#include "dse/ids.h"
#include "dse/pm/process_table.h"
#include "dse/proto/messages.h"
#include "dse/recovery/recovery.h"
#include "dse/sched/scheduler.h"
#include "dse/ssi/services.h"

namespace dse {

namespace recovery {
class Replica;
}  // namespace recovery

struct KernelOptions {
  // Enables the client read cache + home copyset/invalidation protocol.
  bool read_cache = false;
  // Split-transaction transfers: multi-chunk accesses issue all their
  // requests before waiting (latency hiding; an extension beyond the
  // paper's strictly request/response DSE).
  bool pipelined_transfers = false;
  // Fast path: coalesce the sub-accesses of one logical Read/Write that are
  // homed on the same node into a single BatchReq envelope (one protocol
  // overhead per destination instead of per access).
  bool batching = false;
  // Fast path: on an ascending sequential block stride, read ahead this many
  // coherence blocks into the client read cache. 0 disables. Requires
  // read_cache (ignored otherwise).
  int prefetch_depth = 0;
  // Fast path: buffer small writes in the client and flush the combined
  // spans at synchronization points (barrier/lock/atomic/read-overlap) —
  // release consistency at sync instead of per-write round trips.
  bool write_combine = false;
  // Failure-aware data plane: per-attempt deadline and bounded retries for
  // the client's data-plane calls (read/write/atomic/alloc/free/spawn and
  // the SSI queries). 0 deadline = wait forever. Retries resend the same
  // req_id; this kernel's at-most-once cache (below) dedupes the replays.
  // Synchronization calls (lock/barrier/join) never time out — they block
  // by design — but still fail fast on dead peers and shutdown.
  int rpc_deadline_ms = 10000;
  int rpc_max_attempts = 3;
  int rpc_backoff_base_ms = 5;  // exponential: base, 2x, 4x, ...
  // With a lossy fabric (fault plan active) a lost BarrierEnter/LockReq/
  // JoinReq frame would block its caller forever, so the runtimes set this
  // to make sync calls resend (same req_id, deduped at the home) on the
  // data-plane deadline — indefinitely, never surfacing kTimeout.
  bool rpc_sync_retry = false;
  // Recovery subsystem (docs/recovery.md): replication factor for GMM home
  // state. 0 disables recovery entirely (PR 3 behavior); 1 gives each home a
  // backup at the next live ring successor — mutating requests are forwarded
  // as ReplicateReq records and the client reply is gated on the backup's
  // ack, so an acknowledged mutation survives the primary's death.
  int replication = 0;
  // With replication: after an eviction, re-spawn idempotent-marked tasks
  // that were hosted on the dead node instead of failing their joins.
  bool restart_tasks = false;
  // Self-healing membership (docs/recovery.md): minimum number of reachable
  // members (including self) a node needs before it may apply a *locally
  // detected* eviction. 0 means a strict majority of the current
  // membership. A node below the threshold parks instead of evicting.
  int min_quorum = 0;
  // Self-healing membership: whether the coordinator re-admits evicted
  // nodes that ask to rejoin (NodeJoinReq). Off, a returned node stays
  // parked outside the cluster forever.
  bool rejoin = true;
  // Validates SpawnReq task names; unknown names fail the spawn with
  // kInvalidArgument instead of crashing the target node.
  std::function<bool(const std::string&)> has_task;
  // True when the named task was registered idempotent (safe to re-spawn
  // after its host node died). Null means nothing is idempotent.
  std::function<bool(const std::string&)> task_idempotent;
  // Lets the backend merge transport-level counters (e.g. the endpoint's
  // wire byte counts) into StatsSnapshot(). May be null.
  std::function<void(MetricsSnapshot*)> augment_stats;
  // Serving front door (docs/scheduling.md): when enabled, node 0 hosts the
  // multi-tenant job scheduler behind JobSubmitReq/JobStartReq/JobDoneReq.
  sched::Config sched;
  // Microsecond clock for the scheduler's latency/utilization accounting:
  // virtual time on the simulator, steady_clock on the threaded runtime.
  // Accounting only — never control flow, so determinism is unaffected.
  std::function<std::uint64_t()> now_us;
};

struct KernelStats {
  std::uint64_t handled = 0;          // server-side messages processed
  std::uint64_t spawns = 0;
  std::uint64_t spawn_rejects = 0;    // unknown-task spawn requests refused
  std::uint64_t joins = 0;
  std::uint64_t console_lines = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidated = 0;
};

class KernelCore {
 public:
  struct Outgoing {
    NodeId dst;
    proto::Envelope env;
  };
  struct StartTask {
    Gpid gpid;
    std::string task_name;
    std::vector<std::uint8_t> arg;
  };
  struct Actions {
    std::vector<Outgoing> out;
    std::vector<StartTask> start;
    std::vector<std::string> console;  // aggregated lines (node 0)
    bool shutdown = false;
  };

  KernelCore(NodeId self, int num_nodes, KernelOptions options);
  ~KernelCore();

  NodeId self() const { return self_; }
  int num_nodes() const { return num_nodes_; }
  bool read_cache_enabled() const { return options_.read_cache; }
  bool pipelined_transfers() const { return options_.pipelined_transfers; }
  bool batching_enabled() const { return options_.batching; }
  int prefetch_depth() const {
    return options_.read_cache ? options_.prefetch_depth : 0;
  }
  bool write_combine_enabled() const { return options_.write_combine; }
  int rpc_deadline_ms() const { return options_.rpc_deadline_ms; }
  int rpc_max_attempts() const { return options_.rpc_max_attempts; }
  int rpc_backoff_base_ms() const { return options_.rpc_backoff_base_ms; }
  bool rpc_sync_retry() const { return options_.rpc_sync_retry; }

  // --- Recovery / membership (docs/recovery.md) ---------------------------

  // True when primary-backup replication is active on this cluster.
  bool replication_on() const {
    return options_.replication > 0 && num_nodes_ > 1;
  }
  bool restart_tasks() const { return options_.restart_tasks; }
  bool TaskIdempotent(const std::string& name) const {
    return options_.task_idempotent && options_.task_idempotent(name);
  }

  // Membership views for the backend's routing layer (thread-safe; task
  // threads consult them concurrently with the service loop).
  std::uint32_t epoch() const;
  NodeId RouteOf(NodeId natural) const;
  bool NodeAlive(NodeId node) const;
  NodeId CoordinatorView() const;
  NodeId LastEvicted() const;
  NodeId LastAdmitted() const;
  std::vector<std::uint8_t> AliveBitmap() const;

  // Applies an eviction locally — the membership agent's one eviction path
  // (recovery/membership.h). Caller serializes like Handle.
  // Returns the follow-up actions (lock grants, barrier releases, replies
  // un-gated because their backup died, state-transfer kickoffs that
  // restore f = 1). No-op if already evicted.
  Actions ApplyEviction(NodeId dead, std::uint32_t new_epoch);

  // Reachable members (including self) required before this node may apply
  // a locally detected eviction: --min-quorum if set, else a strict
  // majority of the current membership.
  int QuorumRequired() const;
  // Records the start of one quorum-park episode (recovery.quorum_parks).
  void NoteQuorumPark();
  bool rejoin_enabled() const { return options_.rejoin; }

  // Rejoin, step 1 (the returned node): wipes every piece of kernel state
  // the cluster moved on from — home, shadows, promotions, caches, dedupe
  // and replication ledgers — and marks the node's own home pending until a
  // state-transfer hands it back. Requests for the home bounce (RetryResp)
  // in between. Returns a RetryResp for every request accepted but not yet
  // answered (a reply gated on a replication record the new epoch fenced,
  // or deferred behind an invalidation round): the wipe drops those
  // replies, so their callers must re-route now rather than wait out a
  // deadline — or, on a lossless simulated wire, wait forever. The caller
  // then sends NodeJoinReq to the coordinator.
  Actions ResetForRejoin();
  bool own_home_pending() const;

  // The membership agent's tick for the replica path (recovery/replica.h):
  // resends the current chunk of every outgoing transfer that sat unacked
  // past its backoff, retries deferred transfer starts (a serving home with
  // an invalidation round in flight cannot snapshot), and has a drained
  // node report cutover readiness. Idempotent — receivers re-ack duplicate
  // chunks.
  Actions TickTransfers();
  // True when no outgoing state transfer is in flight or deferred (the sim's
  // rolling-restart driver waits for this between cycles).
  bool transfers_idle() const;

  // --- Planned drain (docs/recovery.md) -----------------------------------

  // True once a DrainReq for `node` has been observed here (cleared by the
  // eviction that completes the drain, or by the node's re-admission).
  bool NodeDraining(NodeId node) const;
  // Coordinator-side cutover test: the draining node reported its handoff
  // complete (DrainResp under the current epoch) and the serving scheduler
  // (when hosted here) has no unfinished gang member there. The caller then
  // evicts the node under a bumped epoch — a lossless, planned eviction.
  bool DrainCutoverReady(NodeId node) const;

  // Handles one inbound server-side message (requests, InvalidateReq/Ack,
  // ConsoleOut, Shutdown). Must not be called with client responses.
  Actions Handle(const proto::Envelope& env);

  // Called by the backend when a locally-running task function returns.
  Actions OnLocalTaskExit(Gpid gpid, std::vector<std::uint8_t> result);

  // Registers a locally-bootstrapped task (the main task) without a spawn
  // round trip.
  Gpid RegisterLocalTask(const std::string& name);

  // --- Client read cache (thread-safe; tasks and the service path race in
  // the threaded runtime) -------------------------------------------------

  // Service-path insert of a fetched block.
  void CacheInsert(gmm::GlobalAddr block_base, std::vector<std::uint8_t> data);
  // Service-path cache fill from a client response, before the waiting task
  // sees it: inserts the block-fetch items of a ReadResp/BatchResp stamped
  // with the current epoch. A response served under an older membership
  // (before a failover, or replayed from a shadow's ledger after promotion)
  // still answers its call, but its block is not cached: the promoted
  // home's copyset does not track that copy, so no future write could ever
  // invalidate it.
  void FillCacheFrom(const proto::Envelope& env);
  // Task-path lookup; fills [addr, addr+len) from a cached block if present.
  bool CacheLookup(gmm::GlobalAddr addr, std::uint64_t len, void* out);
  // Task-path local update after an acked write (write-update for self).
  void CacheUpdateLocal(gmm::GlobalAddr addr, const void* data,
                        std::uint64_t len);
  // Presence probe that does not touch the hit/miss counters (prefetch
  // planning must not skew demand-cache statistics).
  bool CacheContains(gmm::GlobalAddr block_base) const;
  size_t cache_block_count() const;

  // --- Observability --------------------------------------------------------

  MetricsRegistry& metrics() { return metrics_; }

  // Per-type traffic accounting (backend transport choke points; atomic).
  void CountSent(proto::MsgType type) {
    msg_sent_[static_cast<size_t>(type)]->Add();
  }
  void CountRecv(proto::MsgType type) {
    msg_recv_[static_cast<size_t>(type)]->Add();
  }
  void CountWireSent(std::uint64_t bytes) {
    net_msgs_sent_->Add();
    net_bytes_sent_->Add(bytes);
    sent_bytes_hist_->Record(static_cast<double>(bytes));
  }
  void CountWireRecv(std::uint64_t bytes) {
    net_msgs_recv_->Add();
    net_bytes_recv_->Add(bytes);
  }

  // Point-in-time merged counter view: live registry counters plus the
  // KernelStats/GmmHomeStats structs (and the backend's augment hook). This
  // is what StatsReq answers with. Thread-safe.
  MetricsSnapshot StatsSnapshot() const;

  // SSI `ps` view of this node's process table (quiescent or externally
  // serialized callers only — backends serialize Handle the same way).
  std::vector<proto::PsEntry> PsSnapshot() const {
    return processes_.Snapshot();
  }

  const KernelStats& stats() const { return stats_; }
  const gmm::GmmHomeStats& gmm_stats() const { return home_.stats(); }
  gmm::GmmHome& home_for_test() { return home_; }
  ssi::SsiServices& ssi_for_test() { return ssi_; }
  // The serving scheduler, or nullptr (disabled / not the scheduler node).
  sched::Scheduler* scheduler() { return sched_.get(); }

 private:
  // The replica path (recovery/replica.h) reads routing, dispatches
  // records against shadow homes and merges promoted response ledgers into
  // the at-most-once cache.
  friend class recovery::Replica;

  // At-most-once cache key: (requester node, req_id).
  using DedupeKey = std::pair<NodeId, std::uint64_t>;

  // The pre-dedupe request dispatch (the body of Handle); `natural` is the
  // request's NaturalHomeOf.
  Actions Dispatch(const proto::Envelope& env, NodeId natural);
  void HandleInvalidate(const proto::Envelope& env, Actions* actions);

  // Turns scheduler start directives into local process starts (self) or
  // one-way JobStartReq frames (remote hosts).
  void ApplyStarts(std::vector<sched::Start> starts, Actions* actions);
  // Creates a local process for one gang member and tags its gpid so exit
  // routes a completion report back to the scheduler.
  void StartJobMember(std::uint64_t job_id, std::uint32_t member,
                      const std::string& task_name,
                      std::vector<std::uint8_t> arg, NodeId origin,
                      Actions* actions);

  // At-most-once execution: moves responses to in-progress mutating
  // requests into the completed cache so a retried request (same src,
  // req_id) replays the original response instead of re-executing.
  void HarvestResponses(Actions* actions);

  // Natural home of a GMM-routed request, or -1 for unrouted types.
  NodeId NaturalHomeOf(const proto::Envelope& env) const;
  // The GmmHome currently serving `natural` on this node: the node's own
  // home, or a promoted shadow. nullptr if this node does not serve it.
  gmm::GmmHome* ServingHome(NodeId natural);
  // Runs a GMM request against an arbitrary home object (the normal home on
  // the primary, shadows on the backup). Returns false for non-GMM types.
  static bool DispatchGmm(gmm::GmmHome& home, const proto::Envelope& env,
                          Actions* actions);
  proto::Envelope MakeRetryResp(const proto::Envelope& req) const;

  // Route-map reads and edits for the replica path (each takes route_mu_).
  NodeId Backup() const;                  // this node's ring successor
  bool RoutedHere(NodeId primary) const;  // dead, and its slot routes here
  bool Admit(NodeId node, std::uint32_t epoch);
  void InstallView(const std::vector<std::uint8_t>& alive,
                   std::uint32_t epoch);
  // Drops the whole client read cache (a membership change moved homes).
  void DropCache();

  NodeId self_;
  int num_nodes_;
  KernelOptions options_;

  gmm::GmmHome home_;
  pm::ProcessTable processes_;

  mutable std::mutex cache_mu_;
  std::unordered_map<gmm::GlobalAddr, std::vector<std::uint8_t>> cache_;

  MetricsRegistry metrics_;
  // Pre-resolved counter handles so the hot paths never take the registry
  // mutex. Indexed by the raw MsgType value (1..kMaxMsgType).
  std::array<Counter*, proto::kMaxMsgType + 1> msg_sent_{};
  std::array<Counter*, proto::kMaxMsgType + 1> msg_recv_{};
  Counter* net_msgs_sent_ = nullptr;
  Counter* net_bytes_sent_ = nullptr;
  Counter* net_msgs_recv_ = nullptr;
  Counter* net_bytes_recv_ = nullptr;
  Histogram* sent_bytes_hist_ = nullptr;

  ssi::SsiServices ssi_;

  // At-most-once request cache. `completed_` holds the response envelope of
  // each finished mutating request; `in_progress_` marks requests whose
  // response is still deferred (e.g. a write ack behind an invalidation
  // round) so duplicates are dropped rather than re-executed.
  recovery::FifoWindow<DedupeKey, proto::Envelope> completed_;
  std::set<DedupeKey> in_progress_;
  Counter* dedupe_replays_ = nullptr;
  Counter* dedupe_drops_ = nullptr;

  // --- Recovery state (docs/recovery.md) ----------------------------------

  // Membership map; guarded by route_mu_ because task threads consult the
  // routing view while the service loop applies evictions.
  mutable std::mutex route_mu_;
  gmm::HomeMap home_map_;

  // Replication, state transfer, join admission and drain.
  std::unique_ptr<recovery::Replica> replica_;

  Counter* evictions_ = nullptr;
  Counter* epoch_bounces_ = nullptr;
  Counter* quorum_parks_ = nullptr;

  // --- Serving front door (docs/scheduling.md) ----------------------------

  // Present only on the scheduler node (node 0) with sched.enabled.
  std::unique_ptr<sched::Scheduler> sched_;
  // Local gang members: gpid -> which job/member it is and which node's
  // scheduler wants the completion report.
  struct JobTag {
    std::uint64_t job_id = 0;
    std::uint32_t member = 0;
    NodeId origin = -1;
  };
  std::map<Gpid, JobTag> job_tags_;

  KernelStats stats_;
};

}  // namespace dse
