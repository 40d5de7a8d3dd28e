// The blocking-call half of the parallel API library (the paper's Fig. 3
// "message exchange to own/other nodes"), shared by every runtime.
//
// RpcEngine owns Call, CallMany and Post and holds the only copy of the
// failure rules: per-attempt deadlines, same-req_id resends with backoff,
// epoch-bounce and dead-destination failover, and abandonment of a call that
// gave up. A runtime supplies only an RpcTransport — how to send to a node,
// how a task waits for its next arrival, and how it pauses — so the
// deterministic simulator runs exactly the retry code the threaded and TCP
// runtimes ship.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dse/ids.h"
#include "dse/kernel_core.h"
#include "dse/proto/messages.h"

namespace dse {

// Failure policy for one blocking call. The engine waits `deadline_ms` per
// attempt (0 = forever) and retries up to `max_attempts` total sends of the
// SAME req_id with exponential backoff between attempts; the kernel's
// at-most-once cache makes the resends safe for mutating requests. On final
// failure the call surfaces kTimeout (no answer) or kUnavailable (peer
// known dead / channel shut down) instead of hanging.
struct CallPolicy {
  int deadline_ms = 0;      // per-attempt wait; 0 = block forever
  int max_attempts = 1;     // total sends (1 = no retry)
  int backoff_base_ms = 5;  // sleep base between attempts: base, 2x, 4x, ...
};

// One entry in a task's mailbox: the response to its registered request
// `req_id`, or the failure the runtime detected for it (destination
// declared dead, service loop gone).
struct RpcArrival {
  std::uint64_t req_id = 0;
  Result<proto::Envelope> outcome;
};

// What a runtime provides to the engine for one task.
class RpcTransport {
 public:
  // Await() deadline that never passes.
  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  virtual ~RpcTransport() = default;

  // A fresh request id; ids increase with every call.
  virtual std::uint64_t NextReqId() = 0;
  // Routes the next arrival for `req_id` into this task's mailbox. `dst` is
  // the node the request goes to: a runtime that learns `dst` died fails
  // the call with kUnavailable. Registering a live id again replaces its
  // destination.
  virtual void Register(std::uint64_t req_id, NodeId dst) = 0;
  virtual void Unregister(std::uint64_t req_id) = 0;
  // Sends to an already-routed node; kUnavailable when it is known dead.
  virtual Status Send(NodeId dst, const proto::Envelope& env) = 0;
  // The clock Await() deadlines are measured on, in nanoseconds.
  virtual std::int64_t NowNs() = 0;
  // Blocks for the mailbox's next arrival; nullopt once the clock reaches
  // `deadline_ns`.
  virtual std::optional<RpcArrival> Await(std::int64_t deadline_ns) = 0;
  virtual void Pause(int ms) = 0;
  // Epoch bounce: reconciles this node's membership view with the
  // responder's before the engine resends.
  virtual void OnBounce(NodeId responder, const proto::RetryResp& rr) = 0;
};

class RpcEngine {
 public:
  // `core` is the task's local kernel: routing, epoch stamps and counters.
  RpcEngine(RpcTransport* transport, KernelCore* core)
      : transport_(transport), core_(core) {}

  // Sends `body` to node `dst`'s kernel and blocks for the response with the
  // matching req_id under `policy`.
  Result<proto::Envelope> Call(NodeId dst, proto::Body body,
                               const CallPolicy& policy = {});

  // Split-transaction variant: issues every request before waiting for any
  // response, so round trips overlap. The outstanding calls share one
  // per-attempt deadline. Responses are returned in request order.
  Result<std::vector<proto::Envelope>> CallMany(
      std::vector<std::pair<NodeId, proto::Body>> calls,
      const CallPolicy& policy = {});

  // One-way message (no response expected, never resent).
  Status Post(NodeId dst, proto::Body body);

 private:
  struct Slot {
    NodeId dst = -1;      // natural destination; every send re-routes
    proto::Envelope env;  // the request, kept for resends
    proto::Envelope resp;
    int attempts = 1;     // sends that consumed the policy's budget
    int failovers = 0;    // resends after a bounce or a dead destination
    bool done = false;
  };

  // Re-stamps, routes, registers and sends `s`; a failover pauses first.
  // Under replication a destination already known dead is waited out with
  // further paced failovers.
  Status SendSlot(Slot& s, bool failover);
  // Collects every outstanding response, resending on timeouts, bounces
  // and failures as the policy and replication allow.
  Status Collect(std::vector<Slot>& slots, const CallPolicy& policy);
  bool CanFailOver(const Slot& s) const;
  std::int64_t AttemptDeadline(const CallPolicy& policy);
  void Count(const char* counter) { core_->metrics().counter(counter)->Add(); }

  RpcTransport* transport_;
  KernelCore* core_;
};

}  // namespace dse
