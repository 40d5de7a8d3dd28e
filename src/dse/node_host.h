// One DSE node hosted on real OS threads: the kernel core, its message
// service loop, the pending-call table, and the task threads running DSE
// processes placed on this node.
//
// Used by two compositions:
//   * ThreadedRuntime — N NodeHosts over the in-process fabric (one binary).
//   * ProcessRuntime  — 1 NodeHost per UNIX process over the TCP fabric
//     (the paper's actual deployment shape).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dse/client.h"
#include "dse/kernel_core.h"
#include "dse/recovery/membership.h"
#include "dse/registry.h"
#include "dse/rpc_engine.h"
#include "dse/task.h"
#include "net/endpoint.h"

namespace dse {

class NodeHost {
 public:
  struct Options {
    bool read_cache = false;
    bool pipelined_transfers = false;
    // GMM fast path (see KernelOptions for semantics).
    bool batching = false;
    int prefetch_depth = 0;
    bool write_combine = false;
    // Failure-aware data plane (see KernelOptions for semantics).
    int rpc_deadline_ms = 10000;
    int rpc_max_attempts = 3;
    int rpc_backoff_base_ms = 5;
    // Lossy-fabric mode: sync calls (lock/barrier/join) resend the same
    // req_id on each deadline instead of blocking forever on one send.
    bool sync_retry = false;
    // Liveness probing: every period this host heartbeats its peers and
    // declares any peer silent past the timeout dead (failing that peer's
    // in-flight calls with kUnavailable and refusing new sends to it).
    // 0 disables the prober; timeout 0 defaults to 5x the period.
    int heartbeat_period_ms = 0;
    int heartbeat_timeout_ms = 0;
    // Ground-truth liveness oracle (in-process harnesses only). When every
    // "node" is a thread of one process, OS-scheduler starvation of a
    // peer's *sender* thread is indistinguishable from real silence to a
    // monitor that kept running — no monitor-side compensation can tell
    // them apart, and a false eviction is equivalent to an extra concurrent
    // node death (outside the f=1-over-time recovery contract). The
    // harness, however, knows ground truth: the fault injector is the only
    // thing that can really kill a node or sever a link in-process. When
    // set, a heartbeat-timeout suspicion of `peer` is latched only if the
    // oracle confirms it; otherwise the silence is starvation and the
    // peer's clock resets. Detection of real kills/severs still flows
    // through the genuine wall-clock timeout — the oracle only filters
    // false positives, it never fast-paths detection.
    std::function<bool(NodeId peer)> silence_confirms;
    // Planned drain trigger (fault-plan `drain N after M` wiring): polled by
    // the coordinator's heartbeat tick; a true answer for a live peer starts
    // that peer's graceful drain (once per host — the latch below). Tests
    // and tools may instead call AdminDrain directly.
    std::function<bool(NodeId peer)> drain_requested;
    // Recovery subsystem (see KernelOptions / docs/recovery.md).
    int replication = 0;
    bool restart_tasks = false;
    // Self-healing membership (see KernelOptions): quorum floor for locally
    // detected evictions (0 = strict majority) and whether evicted nodes
    // may rejoin.
    int min_quorum = 0;
    bool rejoin = true;
    // Serving front door (see KernelOptions / docs/scheduling.md).
    sched::Config sched;
    TaskRegistry* registry = nullptr;            // required
    // Receives SSI console lines (only ever called on node 0's host).
    std::function<void(std::string)> console_sink;
  };

  NodeHost(net::Endpoint* endpoint, int num_nodes, Options options);
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  KernelCore& core() { return core_; }
  NodeId self() const { return core_.self(); }

  // Kernel introspection, serialized against the service and heartbeat
  // threads: eviction (ApplyEviction) mutates kernel stats and the promoted
  // shadow map under core_mu_, so external readers must take it too.
  MetricsSnapshot StatsSnapshot() {
    std::lock_guard<std::mutex> lock(core_mu_);
    return core_.StatsSnapshot();
  }
  std::vector<proto::PsEntry> PsSnapshot() {
    std::lock_guard<std::mutex> lock(core_mu_);
    return core_.PsSnapshot();
  }

  // Installs the endpoint's receive hook and starts the kernel service
  // thread. Call exactly once.
  void Start();

  // Stops every thread of this host: the heartbeat prober, the service loop
  // (shutting the endpoint) and the task threads. Idempotent; the
  // destructor calls it. A runtime whose endpoints deliver frames on other
  // hosts' threads stops every host before destroying any, since those
  // threads run this host's receive hook.
  void Stop();

  // Runs a registered task synchronously on the calling thread as a local
  // DSE process (used to bootstrap the main task). Returns its result.
  std::vector<std::uint8_t> RunLocalTask(const std::string& name,
                                         std::vector<std::uint8_t> arg);

  // Blocks until no task threads are live on this node.
  void WaitTasksDrained();

  // Blocks until the service loop has exited (endpoint shutdown or a
  // Shutdown message). Does not itself stop anything.
  void WaitServiceExit();

  // Sends a Shutdown control message to every node (SSI teardown).
  void BroadcastShutdown();

  // Planned drain admin verb (docs/recovery.md, MembershipAgent::
  // AdminDrain): the drained node hands its homes off to its backup while
  // still serving; the coordinator's heartbeat tick evicts it once the
  // handoff completes and the scheduler is quiesced, and the node then
  // rejoins on the normal re-announce path.
  void AdminDrain(NodeId node) { Perform(membership_.AdminDrain(node)); }
  // True while `node` is marked draining in this host's kernel view.
  bool NodeDraining(NodeId node) {
    std::lock_guard<std::mutex> lock(core_mu_);
    return core_.NodeDraining(node);
  }

  // Node currently serving `natural`'s homes: identity while replication is
  // off or the node lives, the promoted backup after an eviction.
  NodeId ResolveDst(NodeId natural) const {
    return core_.replication_on() ? core_.RouteOf(natural) : natural;
  }

  // --- internals shared with the Task implementation -----------------------
  // One task's inbox: responses and failures for its registered req_ids.
  // The pending table co-owns it, so a delivery racing the task's exit
  // never touches freed memory, and the delivering thread pushes and wakes
  // the task without holding pending_mu_.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<RpcArrival> arrivals;
  };
  std::uint64_t NextReqId();
  // Routes the next arrival for `req_id` to `box`; `dst` is where the
  // request went (its death fails the call). Re-registering replaces both.
  void RegisterCall(std::uint64_t req_id, const std::shared_ptr<Mailbox>& box,
                    NodeId dst);
  void UnregisterCall(std::uint64_t req_id);
  net::Endpoint& endpoint() { return *endpoint_; }
  // Encodes, counts (per-type + wire bytes) and sends. The single outbound
  // choke point for encoded frames — every frame that crosses the endpoint
  // flows through here so the metrics registry sees it exactly once. Fails
  // fast with kUnavailable on peers suspected dead (recovery frames
  // excepted).
  Status SendEnvelope(NodeId dst, const proto::Envelope& env);
  // A frame to self, handled in place when the endpoint passes it clean: a
  // request runs the kernel on the calling thread, a response goes straight
  // into its caller's mailbox. Counted like a sent and received frame of its
  // type (msg.*), never as wire traffic (net.*). Any other verdict carries
  // it encoded through the endpoint, like SendEnvelope. Never call it for a
  // request while emitting (see Emit): the inline kernel pass waits its turn.
  Status SendToSelf(proto::Envelope env);
  // Client-side reaction to a kRetryResp epoch bounce (the membership
  // agent reconciles the two views).
  void HandleRetrySignal(NodeId responder, const proto::RetryResp& rr) {
    Perform(membership_.OnBounce(responder, rr));
  }
  void FinishLocalTask(Gpid gpid, std::vector<std::uint8_t> result);

 private:
  struct Pending {
    std::shared_ptr<Mailbox> box;
    NodeId dst = -1;  // request destination, for dead-node call failure
  };

  void ServiceLoop();
  // One decoded inbound frame, on whichever thread received it: membership
  // frames go to the agent, responses to their mailbox, the rest through
  // the kernel. False once the frame shut the node down.
  bool Serve(proto::Envelope env);
  // Receive hook: consumes client responses on the delivering thread (the
  // service loop never sees them); every other frame is left to the queue.
  bool TakeResponse(const net::Delivery& delivery);
  // Counts one decoded inbound frame and stamps its sender alive.
  void NoteInbound(const proto::Envelope& env, std::uint64_t wire_bytes);
  // Cache fill, then the waiting task's mailbox (or rpc.orphan_resp).
  void DeliverResponse(proto::Envelope env);
  // Carries out actions produced under core_mu_ with emit ticket `ticket`.
  // Kernel passes run on the service thread and on task threads at once, so
  // per destination their frames must still leave in the order the kernel
  // produced them (a block-fetch ReadResp must never be overtaken by the
  // InvalidateReq that follows it). Tickets are taken under core_mu_ and
  // sends wait their turn outside it: no socket send ever holds core_mu_.
  void Emit(std::uint64_t ticket, KernelCore::Actions actions);
  // The emit ticket for `actions` (caller holds core_mu_), or kUnordered
  // when they only answer calls from this node: those responses land in
  // their mailboxes in place, in any order. Most local calls thus never
  // hold a turn, so a task thread descheduled mid-call cannot stall the
  // service thread's replies behind it.
  std::uint64_t TicketFor(const KernelCore::Actions& actions);
  static constexpr std::uint64_t kUnordered = UINT64_MAX;
  void Perform(KernelCore::Actions actions);
  void StartTaskThread(KernelCore::StartTask st);
  void RunTask(KernelCore::StartTask st);
  // Delivers `error` to every pending call (service loop exited: nothing
  // will ever answer them).
  void FailAllPending(const Status& error);
  // Delivers `error` to every pending call addressed to `dst`.
  void FailPendingTo(NodeId dst, const Status& error);
  // The heartbeat failure detector: probes every period, a peer silent
  // past the timeout (net of this monitor's own pauses) is reported to the
  // membership agent, filtered through the silence_confirms oracle.
  bool Silent(NodeId peer, std::int64_t now_ms);
  void HeartbeatLoop();
  std::int64_t NowMs() const;

  net::Endpoint* endpoint_;
  Options options_;
  KernelCore core_;

  std::mutex core_mu_;  // serializes KernelCore server state
  // Emit tickets: the next one is handed out under core_mu_ with each batch
  // of kernel actions; emit_turn_ is the ticket whose sends may go now.
  std::uint64_t next_ticket_ = 0;
  std::atomic<std::uint64_t> emit_turn_{0};
  recovery::MembershipAgent membership_;
  Counter* local_inline_ = nullptr;  // rpc.local_inline
  std::atomic<std::uint64_t> next_req_id_{1};
  std::mutex pending_mu_;
  std::unordered_map<std::uint64_t, Pending> pending_;

  std::thread service_;
  // False once the service loop is gone: nothing may enter the kernel in
  // place any more, as nothing would fail the call it leaves pending.
  std::atomic<bool> serving_{true};
  std::mutex service_exit_mu_;
  std::condition_variable service_exit_cv_;
  bool service_exited_ = false;

  // Heartbeat detector state: the steady-clock stamp of the last frame
  // received from each peer (stamped lock-free by the receiving thread).
  std::vector<std::atomic<std::int64_t>> last_heard_ms_;
  std::thread heartbeat_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  // Task threads. A finishing thread moves its own handle from running_ to
  // finished_; the next spawn (or a drain) joins it, so a long-lived node
  // holds no more thread stacks than it has live tasks.
  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  std::list<std::thread> running_;
  std::vector<std::thread> finished_;
  int live_tasks_ = 0;
};

}  // namespace dse
