#include "dse/sim_runtime.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dse/client.h"
#include "dse/recovery/membership.h"
#include "dse/recovery/recovery.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "simnet/ethernet.h"
#include "simnet/fabric/fabric.h"

namespace dse {
namespace {

// A message in flight inside the simulation, with its wire size (the size
// the real runtime would have put on the socket).
struct SimDelivery {
  proto::Envelope env;
  std::uint64_t bytes = 0;
};

struct SimNode;

// Whole-simulation state for one Run() call.
struct SimState {
  const SimOptions* options = nullptr;
  TaskRegistry* registry = nullptr;
  sim::Simulator sim;
  std::unique_ptr<simnet::Medium> medium;
  // Non-null view of `medium` when it is the routed fabric (per-link stats
  // live on the concrete type).
  simnet::fabric::RoutedFabricMedium* fabric = nullptr;
  std::vector<std::unique_ptr<SimNode>> nodes;
  // Fault injection (null = lossless wire). The injector's verdicts are a
  // pure function of the plan and each link's frame count, so the same plan
  // replays identically here and on the real fabrics.
  std::unique_ptr<net::FaultInjector> fault;
  net::DelayLine<SimDelivery> delayed;

  Gpid main_gpid = kNoGpid;
  sim::SimTime main_finished_at = 0;
  std::vector<std::uint8_t> main_result;
  std::vector<std::string> console;
  std::uint64_t messages = 0;
  std::uint64_t loopback = 0;

  int MachineCount() const {
    return options->machine_profiles.empty()
               ? options->profile.physical_machines
               : static_cast<int>(options->machine_profiles.size());
  }
  int MachineOf(NodeId node) const { return node % MachineCount(); }
  // Cost profile of the machine hosting `node` (heterogeneous clusters give
  // every machine its own).
  const platform::Profile& ProfileOf(NodeId node) const {
    if (options->machine_profiles.empty()) return options->profile;
    return options->machine_profiles[static_cast<size_t>(MachineOf(node))];
  }
  int KernelsOnMachine(int machine) const {
    const int n = options->num_processors;
    const int p = MachineCount();
    return n / p + (machine < n % p ? 1 : 0);
  }
  int KernelsOf(NodeId node) const {
    return KernelsOnMachine(MachineOf(node));
  }
  bool legacy() const {
    return options->organization == OrganizationMode::kLegacyTwoProcess;
  }

  // Routes an encoded message from `src` to `dst`'s mailbox, through the
  // medium when the nodes sit on different physical machines. Consults the
  // fault injector first when one is active.
  void Deliver(NodeId src, NodeId dst, proto::Envelope env,
               std::uint64_t bytes);
  // The raw routing step (post-injection).
  void Forward(NodeId src, NodeId dst, proto::Envelope env,
               std::uint64_t bytes);

  // Kills whose held frames were already discarded (a kill schedule fires
  // exactly once).
  std::set<NodeId> deaths_handled;
  // A kill schedule may just have fired ("at N frames"): discard the dead
  // node's frames still sitting in delay queues at the very frame that
  // triggered it. A write the primary sent before the kill must not surface
  // after its backup has been promoted (it would silently overwrite newer
  // state) — nor after a revive.
  void DropHeldFramesOfNewlyDead();

  // The failure detector behind every node's membership agent: the fault
  // injector's per-pair verdict (either end dead, the link severed) or an
  // unroutable fabric path — the same predicate as the threaded runtime's
  // liveness oracle, read at the agent's virtual-time tick.
  bool Silent(NodeId self, NodeId peer) const {
    if (fault != nullptr &&
        (fault->NodeDead(self) || fault->NodeDead(peer) ||
         fault->LinkSevered(self, peer))) {
      return true;
    }
    return !medium->Reachable(MachineOf(self), MachineOf(peer));
  }
};

recovery::MembershipAgent::Options SimMembershipOptions(SimState* state,
                                                        NodeId self) {
  recovery::MembershipAgent::Options o;
  o.silent = [state, self](NodeId peer, std::int64_t /*now_ms*/) {
    return state->Silent(self, peer);
  };
  if (state->fault != nullptr) {
    net::FaultInjector* fault = state->fault.get();
    o.drain_requested = [fault](NodeId peer) {
      return fault->NodeDraining(peer);
    };
  }
  return o;
}

struct SimNode {
  SimNode(NodeId id, int num_nodes, KernelOptions kopts, SimState* state)
      : core(id, num_nodes, std::move(kopts)),
        membership(&core, SimMembershipOptions(state, id)),
        mailbox(&state->sim),
        state(state) {}

  KernelCore core;
  recovery::MembershipAgent membership;
  sim::Channel<SimDelivery> mailbox;
  SimState* state;

  std::uint64_t next_req_id = 1;
  // Mailbox of the task blocked on each req_id.
  std::unordered_map<std::uint64_t, sim::Channel<RpcArrival>*> pending;
};

// Performs kernel actions from whatever simulated process is running
// (defined below; the membership tick needs it early).
void PerformActions(sim::Context& ctx, SimState& state, SimNode& node,
                    KernelCore::Actions actions);

void SimState::DropHeldFramesOfNewlyDead() {
  for (const net::FaultPlan::Kill& kill : options->fault_plan.kills) {
    if (deaths_handled.count(kill.node) != 0 || !fault->NodeDead(kill.node)) {
      continue;
    }
    deaths_handled.insert(kill.node);
    const size_t drained = delayed.DropNode(kill.node);
    if (drained > 0) {
      DSE_LOG(kInfo) << "sim: dropped " << drained
                     << " held frame(s) of dead node " << kill.node;
    }
  }
}

// Body of a node's membership tick process: the agent's detector round at
// the detection cadence, for as long as the workload runs. Spawned only
// when membership can change, so a lossless run schedules none of it.
void MembershipTicker(sim::Context& ctx, SimState& state, SimNode& node) {
  for (;;) {
    ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
    if (state.main_finished_at != 0) return;
    const auto now_ms = static_cast<std::int64_t>(sim::ToMillis(ctx.Now()));
    PerformActions(ctx, state, node, node.membership.Tick(now_ms));
  }
}

void SimState::Forward(NodeId src, NodeId dst, proto::Envelope env,
                       std::uint64_t bytes) {
  SimNode& target = *nodes[static_cast<size_t>(dst)];
  const proto::MsgType env_type = env.type();
  auto push = [&target, env = std::move(env), bytes]() mutable {
    target.mailbox.Push(SimDelivery{std::move(env), bytes});
  };
  if (MachineOf(src) == MachineOf(dst)) {
    ++loopback;
    sim.After(ProfileOf(src).loopback_latency, std::move(push));
  } else if (env_type == proto::MsgType::kShutdown &&
             !medium->Reachable(MachineOf(src), MachineOf(dst))) {
    // Shutdown is an out-of-band teardown channel (see Deliver): a fabric
    // partition must not strand a kernel process blocked on its mailbox.
    sim.After(options->profile.net.propagation, std::move(push));
  } else {
    medium->Transmit(MachineOf(src), MachineOf(dst), bytes, std::move(push));
  }
}

void SimState::Deliver(NodeId src, NodeId dst, proto::Envelope env,
                       std::uint64_t bytes) {
  ++messages;
  // Shutdown is immune (an out-of-band teardown channel): without it a
  // killed node's kernel process would block forever and deadlock the
  // simulation at quiesce time.
  if (fault != nullptr && env.type() != proto::MsgType::kShutdown) {
    const net::FaultAction act = fault->OnSend(src, dst, bytes);
    DropHeldFramesOfNewlyDead();
    // Age held frames before (possibly) holding this one — a frame never
    // releases itself; released frames go out after the current frame.
    std::vector<SimDelivery> due = delayed.OnFramePassed(src, dst);
    if (act.delay_frames > 0) {
      delayed.Hold(src, dst, SimDelivery{std::move(env), bytes},
                   act.delay_frames);
    } else if (act.deliver) {
      if (act.truncate_to >= 0) {
        // A truncated frame fails Decode on a real fabric and is dropped at
        // the receiver; the sim keeps envelopes structured, so truncation
        // degenerates to the same drop.
      } else {
        proto::Envelope copy;
        const bool dup = act.duplicate;
        if (dup) copy = env;
        Forward(src, dst, std::move(env), bytes);
        if (dup) Forward(src, dst, std::move(copy), bytes);
      }
    }
    for (SimDelivery& d : due) Forward(src, dst, std::move(d.env), d.bytes);
    return;
  }
  Forward(src, dst, std::move(env), bytes);
}

// Sends one kernel message, charging the sender's software path cost in the
// calling process's virtual time.
void ChargeAndSend(sim::Context& ctx, SimState& state, NodeId src, NodeId dst,
                   proto::Envelope env) {
  const std::uint64_t bytes = proto::Encode(env).size();
  KernelCore& src_core = state.nodes[static_cast<size_t>(src)]->core;
  src_core.CountSent(env.type());
  src_core.CountWireSent(bytes);
  const int k = state.KernelsOf(src);
  const platform::Profile& prof = state.ProfileOf(src);
  sim::SimTime cost = platform::SendCost(prof, bytes, k);
  if (state.legacy()) {
    // Old organization: the request crosses to the kernel process first.
    cost += prof.legacy_ipc_hop * k;
  }
  ctx.Sleep(cost);
  if (state.options->trace != nullptr) {
    state.options->trace->Record(trace::Event{
        ctx.Now(), trace::EventKind::kSend, src, dst,
        std::string(proto::MsgTypeName(env.type())), bytes});
  }
  state.Deliver(src, dst, std::move(env), bytes);
}

// --- Task-side RPC ----------------------------------------------------------

// RpcTransport over the simulated mailbox: sends pay their software cost in
// this task's virtual time, and deadlines are virtual too.
class SimRpc final : public RpcTransport {
 public:
  SimRpc(SimNode* node, sim::Context* ctx)
      : node_(node), ctx_(ctx), mailbox_(&node->state->sim) {}

  std::uint64_t NextReqId() override { return node_->next_req_id++; }
  void Register(std::uint64_t req_id, NodeId /*dst*/) override {
    node_->pending.insert_or_assign(req_id, &mailbox_);
  }
  void Unregister(std::uint64_t req_id) override {
    node_->pending.erase(req_id);
  }
  Status Send(NodeId dst, const proto::Envelope& env) override {
    ChargeAndSend(*ctx_, *node_->state, node_->core.self(), dst, env);
    return Status::Ok();
  }
  std::int64_t NowNs() override { return ctx_->Now(); }
  std::optional<RpcArrival> Await(std::int64_t deadline_ns) override {
    // A lossless simulation waits unbounded and schedules no timer event:
    // nothing can be lost, so a deadline would only perturb the event
    // queue.
    if (node_->state->fault == nullptr ||
        deadline_ns == RpcTransport::kNoDeadline) {
      return mailbox_.Pop(*ctx_);
    }
    return mailbox_.PopUntil(*ctx_, deadline_ns);
  }
  void Pause(int ms) override { ctx_->Sleep(sim::Millis(ms)); }
  void OnBounce(NodeId responder, const proto::RetryResp& rr) override {
    PerformActions(*ctx_, *node_->state, *node_,
                   node_->membership.OnBounce(responder, rr));
  }

 private:
  SimNode* node_;
  sim::Context* ctx_;
  sim::Channel<RpcArrival> mailbox_;
};

// --- Task implementation ----------------------------------------------------

// The Task handed to application code on this backend: Compute charges
// virtual CPU time on the node's (possibly time-shared) machine.
ClientTask MakeSimTask(SimNode* node, sim::Context* ctx, Gpid gpid,
                       std::vector<std::uint8_t> arg) {
  SimState* state = node->state;
  const NodeId self = node->core.self();
  return ClientTask(std::make_unique<SimRpc>(node, ctx), &node->core, gpid,
                    std::move(arg), [state, ctx, self](double work_units) {
                      ctx->Sleep(platform::ComputeTime(
                          state->ProfileOf(self), work_units,
                          state->KernelsOf(self)));
                    });
}

// Body of a spawned DSE process.
void RunTaskBody(sim::Context& ctx, SimState& state, SimNode& node,
                 KernelCore::StartTask st) {
  if (state.options->trace != nullptr) {
    state.options->trace->Record(trace::Event{ctx.Now(),
                                              trace::EventKind::kTaskStart,
                                              node.core.self(), -1,
                                              st.task_name, st.gpid});
  }
  std::vector<std::uint8_t> result;
  {
    ClientTask task = MakeSimTask(&node, &ctx, st.gpid, std::move(st.arg));
    // Validation happened at spawn time; a miss here means a concurrent
    // re-registration — degrade to an empty result rather than aborting.
    if (TaskFn fn = state.registry->TryGet(st.task_name)) {
      fn(task);
    } else {
      DSE_LOG(kWarn) << "sim node " << node.core.self() << ": task '"
                     << st.task_name << "' not registered; finishing empty";
    }
    result = task.TakeResult();
  }
  if (st.gpid == state.main_gpid) {
    state.main_finished_at = ctx.Now();
    state.main_result = result;
  }
  if (state.options->trace != nullptr) {
    state.options->trace->Record(trace::Event{ctx.Now(),
                                              trace::EventKind::kTaskExit,
                                              node.core.self(), -1,
                                              st.task_name, st.gpid});
  }
  KernelCore::Actions actions =
      node.core.OnLocalTaskExit(st.gpid, std::move(result));
  PerformActions(ctx, state, node, std::move(actions));

  if (st.gpid == state.main_gpid) {
    // SSI teardown: the master announces shutdown to every kernel.
    for (NodeId n = 0; n < static_cast<NodeId>(state.nodes.size()); ++n) {
      proto::Envelope env;
      env.req_id = 0;
      env.src_node = node.core.self();
      env.body = proto::Shutdown{};
      ChargeAndSend(ctx, state, node.core.self(), n, std::move(env));
    }
  }
}

void PerformActions(sim::Context& ctx, SimState& state, SimNode& node,
                    KernelCore::Actions actions) {
  for (auto& line : actions.console) {
    state.console.push_back(std::move(line));
  }
  for (auto& out : actions.out) {
    ChargeAndSend(ctx, state, node.core.self(), out.dst, std::move(out.env));
  }
  for (auto& st : actions.start) {
    state.sim.Spawn(
        "task-" + GpidToString(st.gpid),
        [&state, &node, st = std::move(st)](sim::Context& task_ctx) mutable {
          RunTaskBody(task_ctx, state, node, std::move(st));
        });
  }
  // actions.shutdown is handled by the kernel loop.
}

// Body of a node's kernel service process.
void KernelLoop(sim::Context& ctx, SimState& state, SimNode& node) {
  const platform::Profile& prof = state.ProfileOf(node.core.self());
  for (;;) {
    SimDelivery d = node.mailbox.Pop(ctx);
    node.core.CountRecv(d.env.type());
    node.core.CountWireRecv(d.bytes);
    const int k = state.KernelsOf(node.core.self());
    ctx.Sleep(platform::RecvCost(prof, d.bytes, k));
    if (state.options->trace != nullptr) {
      state.options->trace->Record(trace::Event{
          ctx.Now(), trace::EventKind::kHandle, node.core.self(),
          d.env.src_node, std::string(proto::MsgTypeName(d.env.type())),
          d.bytes});
    }

    if (KernelCore::Actions consumed;
        node.membership.OnFrame(d.env, &consumed)) {
      PerformActions(ctx, state, node, std::move(consumed));
      continue;
    }

    if (proto::IsClientResponse(d.env.type())) {
      // Cache fills stay ordered with invalidations — same path as the
      // threaded host.
      node.core.FillCacheFrom(d.env);
      const auto it = node.pending.find(d.env.req_id);
      if (it == node.pending.end()) {
        // Expected under faults: the duplicate of a dup'd response, or an
        // answer arriving after its call was abandoned. Without a fault
        // plan the wire is lossless and this cannot happen.
        DSE_CHECK_MSG(state.fault != nullptr, "orphan response in sim");
        node.core.metrics().counter("rpc.orphan_resp")->Add();
        continue;
      }
      sim::Channel<RpcArrival>* mailbox = it->second;
      node.pending.erase(it);
      if (state.legacy()) {
        // Old organization: response crosses back to the app process.
        ctx.Sleep(prof.legacy_ipc_hop * k);
      }
      const std::uint64_t req_id = d.env.req_id;
      mailbox->Push(RpcArrival{req_id, std::move(d.env)});
      continue;
    }

    KernelCore::Actions actions = node.core.Handle(d.env);
    if (actions.shutdown) return;
    PerformActions(ctx, state, node, std::move(actions));
  }
}

}  // namespace

SimRuntime::SimRuntime(SimOptions options) : options_(std::move(options)) {
  DSE_CHECK(options_.num_processors > 0);
  DSE_CHECK(options_.profile.physical_machines > 0);
  // The shared medium spans the machines; a heterogeneous cluster still has
  // one LAN (options_.profile.net).
}

int SimRuntime::KernelsOnMachineOf(NodeId node) const {
  const int p = options_.machine_profiles.empty()
                    ? options_.profile.physical_machines
                    : static_cast<int>(options_.machine_profiles.size());
  const int n = options_.num_processors;
  const int machine = node % p;
  return n / p + (machine < n % p ? 1 : 0);
}

SimReport SimRuntime::Run(const std::string& main_name,
                          std::vector<std::uint8_t> arg) {
  DSE_CHECK_MSG(registry_.Has(main_name), "main task not registered");
  const int n = options_.num_processors;

  SimState state;
  state.options = &options_;
  state.registry = &registry_;

  switch (options_.medium) {
    case MediumKind::kSharedBus:
      state.medium = std::make_unique<simnet::SharedBusMedium>(
          &state.sim, options_.profile.net, options_.seed);
      break;
    case MediumKind::kSwitched:
      state.medium = std::make_unique<simnet::SwitchedMedium>(
          &state.sim, options_.profile.net, state.MachineCount());
      break;
    case MediumKind::kRoutedFabric: {
      simnet::fabric::FabricOptions fopts = options_.fabric;
      for (const auto& fs : options_.fault_plan.fabric_links) {
        simnet::fabric::FabricOptions::LinkFault lf;
        lf.a = fs.a;
        lf.b = fs.b;
        lf.after = fs.after;
        lf.heal = fs.heal;
        fopts.link_faults.push_back(lf);
      }
      auto spec = simnet::fabric::ParseTopologySpec(fopts.topology,
                                                   state.MachineCount());
      DSE_CHECK_MSG(spec.ok(), std::string(spec.status().message()).c_str());
      auto topo = simnet::fabric::Topology::Build(
          *spec, state.MachineCount(), options_.seed);
      DSE_CHECK_MSG(topo.ok(), std::string(topo.status().message()).c_str());
      auto fabric = std::make_unique<simnet::fabric::RoutedFabricMedium>(
          &state.sim, options_.profile.net, std::move(fopts),
          std::move(topo).value(), options_.seed);
      state.fabric = fabric.get();
      state.medium = std::move(fabric);
      break;
    }
  }
  DSE_CHECK_MSG(options_.fault_plan.fabric_links.empty() ||
                    state.fabric != nullptr,
                "fault plan has flink directives but the medium is not the "
                "routed fabric");

  if (options_.fault_plan.enabled()) {
    // A lossy wire with unbounded waits would deadlock the simulation; the
    // deadline is what converts a lost message into a retry or a kTimeout.
    DSE_CHECK_MSG(options_.rpc_deadline_ms > 0,
                  "sim fault injection requires a positive rpc deadline");
    state.fault = std::make_unique<net::FaultInjector>(options_.fault_plan);
  }

  for (NodeId i = 0; i < n; ++i) {
    KernelOptions kopts;
    kopts.read_cache = options_.read_cache;
    kopts.pipelined_transfers = options_.pipelined_transfers;
    kopts.batching = options_.batching;
    kopts.prefetch_depth = options_.prefetch_depth;
    kopts.write_combine = options_.write_combine;
    kopts.rpc_deadline_ms = options_.rpc_deadline_ms;
    kopts.rpc_max_attempts = options_.rpc_max_attempts;
    kopts.rpc_backoff_base_ms = options_.rpc_backoff_base_ms;
    kopts.rpc_sync_retry = options_.fault_plan.enabled();
    kopts.replication = options_.replication;
    kopts.restart_tasks = options_.restart_tasks;
    kopts.min_quorum = options_.min_quorum;
    kopts.rejoin = options_.rejoin;
    kopts.has_task = [this](const std::string& name) {
      return registry_.Has(name);
    };
    kopts.task_idempotent = [this](const std::string& name) {
      return registry_.IsIdempotent(name);
    };
    kopts.sched = options_.sched;
    // Scheduler latency accounting in virtual microseconds. `state` outlives
    // every node (both live in this Run frame).
    kopts.now_us = [&state] {
      return static_cast<std::uint64_t>(sim::ToMicros(state.sim.Now()));
    };
    state.nodes.push_back(
        std::make_unique<SimNode>(i, n, std::move(kopts), &state));
  }

  // Kernel service processes.
  for (NodeId i = 0; i < n; ++i) {
    SimNode* node = state.nodes[static_cast<size_t>(i)].get();
    state.sim.Spawn("kernel-" + std::to_string(i),
                    [&state, node](sim::Context& ctx) {
                      KernelLoop(ctx, state, *node);
                    });
  }

  // Membership runs the shared protocol (recovery/membership.h): one agent
  // per node, ticked in virtual time — only when membership can change, so
  // a lossless run schedules no agent event and sends no membership frame.
  if (state.nodes[0]->core.replication_on() &&
      (options_.fault_plan.enabled() || options_.rolling)) {
    for (NodeId i = 0; i < n; ++i) {
      SimNode* node = state.nodes[static_cast<size_t>(i)].get();
      state.sim.Spawn("membership-" + std::to_string(i),
                      [&state, node](sim::Context& ctx) {
                        MembershipTicker(ctx, state, *node);
                      });
    }
  }

  // Rolling-restart maintenance driver (docs/recovery.md): the coordinator
  // drains every node except itself in sequence while the main task keeps
  // running. Each cycle waits for the restarted node to be fully re-admitted
  // (cutover eviction and admission — two epochs — own home handed back,
  // all transfers drained) before the next begins, so exactly one node is
  // ever out of the serving set.
  if (options_.rolling) {
    DSE_CHECK_MSG(options_.replication > 0 && options_.rejoin,
                  "rolling restarts require replication and rejoin");
    state.sim.Spawn("rolling-restart", [&state](sim::Context& ctx) {
      // Let the cluster come up and the workload start before the first
      // drain.
      ctx.Sleep(sim::Millis(10 * recovery::kSimDetectionDelayMs));
      SimNode& coord = *state.nodes[0];
      const NodeId count = static_cast<NodeId>(state.nodes.size());
      for (NodeId d = 1; d < count; ++d) {
        if (state.main_finished_at != 0) return;
        const std::uint32_t start = coord.core.epoch();
        PerformActions(ctx, state, coord, coord.membership.AdminDrain(d));
        const SimNode& dn = *state.nodes[static_cast<size_t>(d)];
        for (;;) {
          ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
          if (state.main_finished_at != 0) return;
          bool idle = coord.core.epoch() >= start + 2 &&
                      coord.core.NodeAlive(d) && dn.core.NodeAlive(d) &&
                      !dn.core.own_home_pending();
          for (const auto& entry : state.nodes) {
            idle = idle && entry->core.transfers_idle();
          }
          if (idle) break;
        }
      }
    });
  }

  // Bootstrap the main DSE process on node 0.
  SimNode* node0 = state.nodes[0].get();
  state.main_gpid = node0->core.RegisterLocalTask(main_name);
  KernelCore::StartTask main_start{state.main_gpid, main_name,
                                   std::move(arg)};
  state.sim.Spawn("task-main",
                  [&state, node0, st = std::move(main_start)](
                      sim::Context& ctx) mutable {
                    RunTaskBody(ctx, state, *node0, std::move(st));
                  });

  state.sim.RunUntilIdle();

  SimReport report;
  report.virtual_seconds = sim::ToSeconds(state.main_finished_at);
  report.main_result = std::move(state.main_result);
  report.console = std::move(state.console);
  report.messages = state.messages;
  report.loopback = state.loopback;
  const simnet::MediumStats& net = state.medium->stats();
  report.wire_frames = net.frames;
  report.wire_bytes = net.wire_bytes;
  report.collisions = net.collisions;
  // For the single-segment media busy_time/makespan is the medium's
  // utilization; a fabric sums busy time across many links, so report its
  // hottest link instead (the serialization bottleneck).
  sim::SimTime busy_for_util = net.busy_time;
  if (state.fabric != nullptr) {
    busy_for_util = 0;
    for (const auto& use : state.fabric->link_use())
      busy_for_util = std::max(busy_for_util, use.busy);
  }
  report.bus_utilization =
      state.main_finished_at > 0
          ? static_cast<double>(busy_for_util) /
                static_cast<double>(state.main_finished_at)
          : 0.0;
  for (const auto& node : state.nodes) {
    report.cache_hits += node->core.stats().cache_hits;
    report.cache_misses += node->core.stats().cache_misses;
    report.invalidations += node->core.gmm_stats().invalidations;
  }

  // SSI introspection views. Counter values are a pure function of
  // (options, arg): all counting happens in the deterministic event loop.
  report.node_stats.reserve(state.nodes.size());
  for (const auto& node : state.nodes) {
    report.node_stats.push_back(node->core.StatsSnapshot());
    auto entries = node->core.PsSnapshot();
    report.ps.insert(report.ps.end(), entries.begin(), entries.end());
    for (const auto& [name, s] : node->core.metrics().HistogramSnapshot()) {
      report.histograms[name].Merge(s);
    }
  }
  report.medium_counters = simnet::MediumCounters(*state.medium);
  if (state.fault != nullptr) report.fault_counters = state.fault->Counters();

  // Final counter samples into the trace (Chrome counter tracks). Stamped at
  // the simulator's final time so the timeline stays monotonic — the cluster
  // keeps draining shutdowns after the main task finishes.
  if (options_.trace != nullptr) {
    for (size_t n = 0; n < report.node_stats.size(); ++n) {
      for (const auto& [name, value] : report.node_stats[n]) {
        options_.trace->Record(trace::Event{state.sim.Now(),
                                            trace::EventKind::kCounter,
                                            static_cast<NodeId>(n), -1, name,
                                            value});
      }
    }
  }

  last_node_stats_ = report.node_stats;
  last_ps_ = report.ps;
  last_medium_counters_ = report.medium_counters;
  return report;
}

}  // namespace dse
