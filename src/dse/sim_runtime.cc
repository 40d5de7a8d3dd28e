#include "dse/sim_runtime.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dse/client.h"
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
  // Non-null view of `medium` when it is the routed fabric (topology events
  // and per-link stats live on the concrete type).
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

  // Recovery: kills already reacted to (a kill schedule fires exactly once).
  std::set<NodeId> deaths_handled;
  // Planned drains already reacted to (one flag per plan drain entry).
  std::set<size_t> drains_handled;
  // Self-healing membership bookkeeping. `members` is the sim's converged
  // membership ground truth (what a quorum-holding coordinator would have
  // committed); `parked` holds nodes currently quorum-parked so each park
  // episode counts once. The *_handled sets make each plan entry's
  // activation/heal/revive fire exactly once.
  std::set<NodeId> members;
  std::set<NodeId> parked;
  std::set<size_t> severs_active;
  std::set<size_t> severs_healed;
  std::set<size_t> revives_handled;
  bool xfer_nudge_active = false;

  // Checks the injector for newly fired kills, severs, heals and revives;
  // each reaction is scheduled kSimDetectionDelayMs of virtual time later.
  void NoteDeaths();
  void OnNodeDeath(NodeId dead);
  // A plan `drain` schedule fired: run the planned-maintenance cycle a
  // detection delay later.
  void OnNodeDrain(NodeId node);
  // One full planned-maintenance cycle for `node` (docs/recovery.md): mark
  // every member's view draining (the target starts handing its homes off to
  // its backup while still serving), keep the target's transfers ticking
  // until the coordinator observes cutover readiness, apply the planned
  // eviction on every survivor in one step, and re-admit the node through
  // the normal rejoin path. A node killed mid-drain drops out of the cycle
  // here and the regular failover reaction (NoteDeaths -> ReactToMembership)
  // takes over, replaying buffered acked writes at the backup.
  void RunDrainCycle(sim::Context& ctx, NodeId node);
  void OnSeverFired(size_t index);
  void OnSeverHealed(size_t index);
  void OnNodeRevive(NodeId node);
  // Translates fabric link severs/heals (fired inside the medium by frame
  // count) into the same detection-delayed membership reactions as plan
  // severs. Polled after deliveries — only a Transmit can fire one.
  void PollFabricEvents();
  // The converged membership reaction: partitions the live members into
  // reachability components, lets the quorum-holding component evict every
  // unreachable member, and parks quorum-less components. Applies every
  // eviction before performing any resulting sends so all survivors move
  // epochs together (no stale-epoch chunk drops between them).
  void ReactToMembership(sim::Context& ctx);
  // Quorum for a locally detected eviction, relative to current membership.
  int QuorumRequired() const {
    return options->min_quorum > 0
               ? options->min_quorum
               : static_cast<int>(members.size()) / 2 + 1;
  }
  // Evicted-but-live node asks to be re-admitted (heal / revive path).
  void StartRejoin(sim::Context& ctx, NodeId node);
  // Keeps in-flight state transfers moving: retries deferred starts and
  // resends unacked chunks until every node's transfers drain.
  void EnsureXferNudge();
};

struct SimNode {
  SimNode(NodeId id, int num_nodes, KernelOptions kopts, SimState* state)
      : core(id, num_nodes, std::move(kopts)),
        mailbox(&state->sim),
        state(state) {}

  KernelCore core;
  sim::Channel<SimDelivery> mailbox;
  SimState* state;

  std::uint64_t next_req_id = 1;
  // Mailbox of the task blocked on each req_id.
  std::unordered_map<std::uint64_t, sim::Channel<RpcArrival>*> pending;

  bool shutting_down = false;
};

// Performs kernel actions from whatever simulated process is running
// (defined below; the recovery path needs it early).
void PerformActions(sim::Context& ctx, SimState& state, SimNode& node,
                    KernelCore::Actions actions);
void ChargeAndSend(sim::Context& ctx, SimState& state, NodeId src, NodeId dst,
                   proto::Envelope env);

void SimState::NoteDeaths() {
  if (fault == nullptr) return;
  for (const net::FaultPlan::Kill& kill : options->fault_plan.kills) {
    if (kill.node < 0 ||
        kill.node >= static_cast<NodeId>(nodes.size()) ||
        deaths_handled.count(kill.node) != 0 ||
        !fault->NodeDead(kill.node)) {
      continue;
    }
    deaths_handled.insert(kill.node);
    OnNodeDeath(kill.node);
  }
  // Sever activations / heals and kill revives (self-healing membership).
  const auto& plan = options->fault_plan;
  for (size_t i = 0; i < plan.severs.size(); ++i) {
    const net::FaultPlan::Sever& sv = plan.severs[i];
    if (severs_active.count(i) == 0 && fault->LinkSevered(sv.a, sv.b)) {
      severs_active.insert(i);
      OnSeverFired(i);
    }
    if (severs_active.count(i) != 0 && severs_healed.count(i) == 0 &&
        sv.heal >= 0 && !fault->LinkSevered(sv.a, sv.b)) {
      severs_healed.insert(i);
      OnSeverHealed(i);
    }
  }
  for (size_t i = 0; i < plan.kills.size(); ++i) {
    const net::FaultPlan::Kill& kill = plan.kills[i];
    if (kill.revive >= 0 && deaths_handled.count(kill.node) != 0 &&
        revives_handled.count(i) == 0 && !fault->NodeDead(kill.node)) {
      revives_handled.insert(i);
      OnNodeRevive(kill.node);
    }
  }
  // Planned drains ("drain N after M"): each schedule fires exactly once.
  for (size_t i = 0; i < plan.drains.size(); ++i) {
    const net::FaultPlan::Drain& dr = plan.drains[i];
    if (dr.node < 0 || dr.node >= static_cast<NodeId>(nodes.size()) ||
        drains_handled.count(i) != 0 || !fault->NodeDraining(dr.node)) {
      continue;
    }
    drains_handled.insert(i);
    OnNodeDrain(dr.node);
  }
}

void SimState::OnNodeDeath(NodeId dead) {
  // Drain the dead node's frames still sitting in delay queues: a write the
  // primary sent before the kill must not surface after the backup has been
  // promoted (it would silently overwrite newer state).
  const size_t drained = delayed.DropNode(dead);
  if (drained > 0) {
    DSE_LOG(kInfo) << "sim: dropped " << drained
                   << " held frame(s) of dead node " << dead;
  }
  if (!nodes[0]->core.replication_on()) return;  // PR 3 semantics: no failover
  // Survivors react after a fixed virtual detection delay. The sim has no
  // heartbeat traffic, so detection is modeled, not messaged — and the
  // membership reaction is computed directly on every survivor instead of
  // broadcast, which keeps it immune to the injector's message faults (the
  // real runtimes repair lost EvictReqs with re-announce + gossip; the sim
  // asserts the converged behaviour deterministically).
  sim.Spawn("evict-" + std::to_string(dead),
            [this](sim::Context& ctx) {
              ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
              ReactToMembership(ctx);
            });
}

void SimState::OnNodeDrain(NodeId node) {
  if (!nodes[0]->core.replication_on()) return;  // drain needs a backup
  sim.Spawn("drain-" + std::to_string(node),
            [this, node](sim::Context& ctx) {
              ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
              RunDrainCycle(ctx, node);
            });
}

void SimState::RunDrainCycle(sim::Context& ctx, NodeId node) {
  if (members.count(node) == 0) return;  // already evicted: stale drain
  if (fault != nullptr && fault->NodeDead(node)) return;
  // Deliver the DrainReq on every member core directly (converged modeling,
  // same shape as ReactToMembership — the real runtimes broadcast and repair
  // lost copies via re-announce). Each core marks the node draining; the
  // target itself starts the planned handoff toward its backup.
  for (NodeId m : members) {
    SimNode& mn = *nodes[static_cast<size_t>(m)];
    proto::Envelope env;
    env.req_id = 0;
    env.src_node = *members.begin();  // nominal sender: the coordinator
    env.epoch = mn.core.epoch();
    env.body = proto::DrainReq{node, mn.core.epoch()};
    PerformActions(ctx, *this, mn, mn.core.Handle(env));
  }
  EnsureXferNudge();
  // Watch for cutover readiness in virtual time. The idle tick on the
  // draining node is what emits its DrainResp (the xfer nudge skips idle
  // cores, so the watch must tick it explicitly).
  for (;;) {
    ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
    if (main_finished_at != 0) return;  // workload done: cluster tearing down
    if (fault != nullptr && fault->NodeDead(node)) return;  // killed mid-drain
    if (members.count(node) == 0) return;  // lost to a concurrent eviction
    SimNode& dn = *nodes[static_cast<size_t>(node)];
    PerformActions(ctx, *this, dn, dn.core.TickTransfers());
    NodeId coord = -1;
    for (NodeId m : members) {
      if (m != node && (fault == nullptr || !fault->NodeDead(m))) {
        coord = m;
        break;
      }
    }
    if (coord < 0) return;  // nobody left to run the cutover
    if (nodes[static_cast<size_t>(coord)]->core.DrainCutoverReady(node)) {
      break;
    }
  }
  // Planned cutover: every survivor applies the eviction in one step (same
  // staging as ReactToMembership, so no survivor sees another's
  // re-replication chunks from a stale epoch), then the node rejoins with a
  // clean slate over PR 5's admission path.
  std::vector<std::pair<SimNode*, KernelCore::Actions>> staged;
  for (NodeId m : members) {
    if (m == node) continue;
    if (fault != nullptr && fault->NodeDead(m)) continue;
    SimNode& mn = *nodes[static_cast<size_t>(m)];
    if (!mn.core.NodeAlive(node)) continue;
    staged.emplace_back(&mn, mn.core.ApplyEviction(node, mn.core.epoch() + 1));
  }
  for (auto& [sn, actions] : staged) {
    PerformActions(ctx, *this, *sn, std::move(actions));
  }
  members.erase(node);
  EnsureXferNudge();
  if (!options->rejoin) return;
  ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
  if (main_finished_at != 0) return;
  StartRejoin(ctx, node);
}

void SimState::OnSeverFired(size_t index) {
  if (!nodes[0]->core.replication_on()) return;
  sim.Spawn("sever-" + std::to_string(index),
            [this](sim::Context& ctx) {
              ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
              ReactToMembership(ctx);
            });
}

void SimState::OnSeverHealed(size_t index) {
  if (!nodes[0]->core.replication_on()) return;
  sim.Spawn("heal-" + std::to_string(index),
            [this](sim::Context& ctx) {
              ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
              // Reconnected nodes leave the parked state; the membership
              // reaction below re-parks whoever still lacks a quorum (each
              // re-park counts a fresh episode) and lets a restored quorum
              // evict nodes that died while no quorum could act.
              parked.clear();
              ReactToMembership(ctx);
              // Evicted-but-live nodes on the healed side come back.
              if (!options->rejoin) return;
              std::vector<NodeId> rejoiners;
              for (NodeId n = 0; n < static_cast<NodeId>(nodes.size()); ++n) {
                if (members.count(n) == 0 && !fault->NodeDead(n)) {
                  rejoiners.push_back(n);
                }
              }
              for (NodeId n : rejoiners) StartRejoin(ctx, n);
            });
}

void SimState::OnNodeRevive(NodeId node) {
  if (!nodes[0]->core.replication_on() || !options->rejoin) return;
  sim.Spawn("revive-" + std::to_string(node),
            [this, node](sim::Context& ctx) {
              ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
              // A revived node that was never evicted (no quorum could act
              // while it was dark) is still a member with intact state; the
              // membership reaction below settles any pending eviction
              // decisions either way.
              if (members.count(node) == 0) StartRejoin(ctx, node);
            });
}

void SimState::PollFabricEvents() {
  if (fabric == nullptr || !fabric->has_link_faults()) return;
  for (const auto& ev : fabric->TakeTopologyEvents()) {
    if (!nodes[0]->core.replication_on()) continue;
    if (!ev.heal) {
      // Same shape as OnSeverFired: traffic is already rerouting (or being
      // dropped) inside the medium; the membership layer reacts a detection
      // delay later and evicts whatever became unreachable.
      sim.Spawn("flink-sever-" + std::to_string(ev.fault_index),
                [this](sim::Context& ctx) {
                  ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
                  ReactToMembership(ctx);
                });
    } else {
      sim.Spawn("flink-heal-" + std::to_string(ev.fault_index),
                [this](sim::Context& ctx) {
                  ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
                  parked.clear();
                  ReactToMembership(ctx);
                  if (!options->rejoin) return;
                  std::vector<NodeId> rejoiners;
                  for (NodeId nd = 0; nd < static_cast<NodeId>(nodes.size());
                       ++nd) {
                    if (members.count(nd) == 0 && !fault->NodeDead(nd)) {
                      rejoiners.push_back(nd);
                    }
                  }
                  for (NodeId nd : rejoiners) StartRejoin(ctx, nd);
                });
    }
  }
}

void SimState::ReactToMembership(sim::Context& ctx) {
  // Live members and their reachability components (an edge exists while the
  // pair's link is not severed).
  std::vector<NodeId> live;
  for (NodeId m : members) {
    if (!fault->NodeDead(m)) live.push_back(m);
  }
  std::set<NodeId> seen;
  std::vector<std::vector<NodeId>> components;
  for (NodeId root : live) {
    if (seen.count(root) != 0) continue;
    std::vector<NodeId> comp;
    std::vector<NodeId> stack = {root};
    seen.insert(root);
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      comp.push_back(cur);
      for (NodeId next : live) {
        if (seen.count(next) == 0 && !fault->LinkSevered(cur, next) &&
            medium->Reachable(MachineOf(cur), MachineOf(next))) {
          seen.insert(next);
          stack.push_back(next);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    components.push_back(std::move(comp));
  }
  const int quorum = QuorumRequired();
  const std::vector<NodeId>* majority = nullptr;
  for (const auto& comp : components) {
    if (static_cast<int>(comp.size()) >= quorum) {
      majority = &comp;
      break;
    }
  }
  if (majority == nullptr) {
    // No component can commit an eviction: everyone parks, membership
    // stays as it was (dead nodes included) until connectivity returns.
    for (NodeId m : live) {
      if (parked.insert(m).second) {
        nodes[static_cast<size_t>(m)]->core.NoteQuorumPark();
      }
    }
    return;
  }
  std::vector<NodeId> targets;
  for (NodeId m : members) {
    if (std::find(majority->begin(), majority->end(), m) == majority->end()) {
      targets.push_back(m);
    }
  }
  // Apply every eviction before performing any resulting sends, so every
  // survivor reaches the final epoch before the first StateChunkReq of the
  // re-replication kickoff can arrive.
  std::vector<std::pair<SimNode*, KernelCore::Actions>> staged;
  for (NodeId evictor : *majority) {
    SimNode& node = *nodes[static_cast<size_t>(evictor)];
    for (NodeId d : targets) {
      if (!node.core.NodeAlive(d)) continue;  // already evicted in this view
      staged.emplace_back(&node,
                          node.core.ApplyEviction(d, node.core.epoch() + 1));
    }
  }
  for (auto& [node, actions] : staged) {
    PerformActions(ctx, *this, *node, std::move(actions));
  }
  for (NodeId d : targets) members.erase(d);
  for (const auto& comp : components) {
    if (&comp == majority) continue;
    for (NodeId m : comp) {
      if (parked.insert(m).second) {
        nodes[static_cast<size_t>(m)]->core.NoteQuorumPark();
      }
    }
  }
  if (!targets.empty()) EnsureXferNudge();
}

void SimState::StartRejoin(sim::Context& ctx, NodeId node) {
  SimNode& rn = *nodes[static_cast<size_t>(node)];
  rn.core.ResetForRejoin();
  NodeId coord = -1;
  for (NodeId m : members) {
    if (m != node && (fault == nullptr || !fault->NodeDead(m)) &&
        medium->Reachable(MachineOf(node), MachineOf(m))) {
      coord = m;
      break;
    }
  }
  if (coord < 0) return;  // nobody to admit us; a later heal retries
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = node;
  env.epoch = rn.core.epoch();
  env.body = proto::NodeJoinReq{node};
  ChargeAndSend(ctx, *this, node, coord, std::move(env));
  // Ground truth: admission by a live coordinator is deterministic.
  members.insert(node);
  EnsureXferNudge();
}

void SimState::EnsureXferNudge() {
  if (xfer_nudge_active) return;
  xfer_nudge_active = true;
  sim.Spawn("xfer-nudge", [this](sim::Context& ctx) {
    // Transfers normally progress on their own ack ping-pong; the nudge
    // only unsticks deferred starts and chunks lost to injected faults.
    // Exits after a few consecutive idle rounds (transfers triggered by a
    // just-sent NodeJoinReq take a round trip to appear).
    int idle_rounds = 0;
    while (idle_rounds < 5) {
      ctx.Sleep(sim::Millis(4 * recovery::kSimDetectionDelayMs));
      bool any = false;
      for (auto& entry : nodes) {
        SimNode& node = *entry;
        if (fault != nullptr && fault->NodeDead(node.core.self())) continue;
        if (node.core.transfers_idle()) continue;
        any = true;
        PerformActions(ctx, *this, node, node.core.TickTransfers());
      }
      idle_rounds = any ? 0 : idle_rounds + 1;
    }
    xfer_nudge_active = false;
  });
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
    // A kill schedule may just have fired ("at N frames"); react exactly at
    // the frame that triggered it so every run detects at the same instant.
    NoteDeaths();
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
    PollFabricEvents();
    return;
  }
  Forward(src, dst, std::move(env), bytes);
  PollFabricEvents();
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
  // Evictions are applied on every survivor directly (SimState::
  // ReactToMembership), so there is no view to reconcile.
  void OnBounce(NodeId /*responder*/,
                const proto::RetryResp& /*rr*/) override {}

 private:
  SimNode* node_;
  sim::Context* ctx_;
  sim::Channel<RpcArrival> mailbox_;
};

// --- Task implementation ----------------------------------------------------

class SimTask final : public Task {
 public:
  SimTask(SimNode* node, sim::Context* ctx, Gpid gpid,
          std::vector<std::uint8_t> arg)
      : node_(node),
        ctx_(ctx),
        gpid_(gpid),
        arg_(std::move(arg)),
        rpc_(node, ctx),
        client_(&rpc_, &node->core) {}

  NodeId node() const override { return node_->core.self(); }
  Gpid gpid() const override { return gpid_; }
  int num_nodes() const override { return node_->core.num_nodes(); }
  const std::vector<std::uint8_t>& arg() const override { return arg_; }
  void SetResult(std::vector<std::uint8_t> result) override {
    result_ = std::move(result);
  }
  std::vector<std::uint8_t> TakeResult() { return std::move(result_); }

  Result<gmm::GlobalAddr> AllocStriped(std::uint64_t size,
                                       std::uint8_t block_log2) override {
    return client_.AllocStriped(size, block_log2);
  }
  Result<gmm::GlobalAddr> AllocOnNode(std::uint64_t size,
                                      NodeId home) override {
    return client_.AllocOnNode(size, home);
  }
  Status Free(gmm::GlobalAddr addr) override { return client_.Free(addr); }
  Status Read(gmm::GlobalAddr addr, void* out, std::uint64_t len) override {
    return client_.Read(addr, out, len);
  }
  Status Write(gmm::GlobalAddr addr, const void* src,
               std::uint64_t len) override {
    return client_.Write(addr, src, len);
  }
  Result<std::int64_t> AtomicFetchAdd(gmm::GlobalAddr addr,
                                      std::int64_t delta) override {
    return client_.AtomicFetchAdd(addr, delta);
  }
  Result<std::int64_t> AtomicCompareExchange(gmm::GlobalAddr addr,
                                             std::int64_t expected,
                                             std::int64_t desired) override {
    return client_.AtomicCompareExchange(addr, expected, desired);
  }
  Status Lock(std::uint64_t lock_id) override { return client_.Lock(lock_id); }
  Status Unlock(std::uint64_t lock_id) override {
    return client_.Unlock(lock_id);
  }
  Status Barrier(std::uint64_t barrier_id, int parties) override {
    return client_.Barrier(barrier_id, parties);
  }
  Result<Gpid> Spawn(const std::string& task_name,
                     std::vector<std::uint8_t> arg,
                     NodeId node_hint) override {
    return client_.Spawn(task_name, std::move(arg), node_hint);
  }
  Result<std::vector<std::uint8_t>> Join(Gpid gpid) override {
    return client_.Join(gpid);
  }

  void Compute(double work_units) override {
    ctx_->Sleep(platform::ComputeTime(node_->state->ProfileOf(node()),
                                      work_units,
                                      node_->state->KernelsOf(node())));
  }
  void Print(const std::string& text) override {
    (void)client_.Print(gpid_, text);
  }
  Result<std::vector<proto::PsEntry>> ClusterPs() override {
    return client_.ClusterPs();
  }
  Result<std::vector<MetricsSnapshot>> ClusterStats() override {
    return client_.ClusterStats();
  }
  Status PublishName(const std::string& name, std::uint64_t value) override {
    return client_.PublishName(name, value);
  }
  Result<std::uint64_t> LookupName(const std::string& name) override {
    return client_.LookupName(name);
  }
  Result<std::uint64_t> SubmitJob(std::uint32_t tenant,
                                  const std::string& task_name,
                                  std::vector<std::uint8_t> arg,
                                  std::uint32_t gang,
                                  NodeId locality_hint) override {
    return client_.SubmitJob(tenant, task_name, std::move(arg), gang,
                             locality_hint);
  }
  Result<std::map<std::string, std::uint64_t>> SchedStat() override {
    return client_.SchedStat();
  }

 private:
  SimNode* node_;
  sim::Context* ctx_;
  Gpid gpid_;
  std::vector<std::uint8_t> arg_;
  std::vector<std::uint8_t> result_;
  SimRpc rpc_;
  TaskClient client_;
};

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
    SimTask task(&node, &ctx, st.gpid, std::move(st.arg));
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

    if (proto::IsClientResponse(d.env.type())) {
      // Epoch-gated cache fill — same rule as the threaded host: a block
      // served under an older membership epoch is delivered to the waiting
      // call but never cached (no live copyset tracks that copy).
      if (d.env.epoch == node.core.epoch()) {
        if (auto* rr = std::get_if<proto::ReadResp>(&d.env.body);
            rr != nullptr && rr->block_fetch) {
          node.core.CacheInsert(rr->addr, rr->data);
        } else if (auto* br = std::get_if<proto::BatchResp>(&d.env.body)) {
          for (const proto::BatchItemResp& item : br->items) {
            if (item.block_fetch) node.core.CacheInsert(item.addr, item.data);
          }
        }
      }
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
    state.members.insert(i);
  }

  // Kernel service processes.
  for (NodeId i = 0; i < n; ++i) {
    SimNode* node = state.nodes[static_cast<size_t>(i)].get();
    state.sim.Spawn("kernel-" + std::to_string(i),
                    [&state, node](sim::Context& ctx) {
                      KernelLoop(ctx, state, *node);
                    });
  }

  // Rolling-restart maintenance driver (docs/recovery.md): drain, restart
  // and rejoin every node except node 0 in sequence while the main task
  // keeps running. Each cycle waits for the restarted node to be fully
  // re-admitted (own home handed back, all transfers drained) before the
  // next begins, so exactly one node is ever out of the serving set.
  if (options_.rolling) {
    DSE_CHECK_MSG(options_.replication > 0 && options_.rejoin,
                  "rolling restarts require replication and rejoin");
    state.sim.Spawn("rolling-restart", [&state](sim::Context& ctx) {
      // Let the cluster come up and the workload start before the first
      // drain.
      ctx.Sleep(sim::Millis(10 * recovery::kSimDetectionDelayMs));
      const NodeId count = static_cast<NodeId>(state.nodes.size());
      for (NodeId d = 1; d < count; ++d) {
        if (state.main_finished_at != 0) return;
        state.RunDrainCycle(ctx, d);
        for (;;) {
          ctx.Sleep(sim::Millis(recovery::kSimDetectionDelayMs));
          if (state.main_finished_at != 0) return;
          if (state.members.count(d) == 0) continue;  // rejoin still pending
          SimNode& dn = *state.nodes[static_cast<size_t>(d)];
          bool idle = true;
          for (const auto& entry : state.nodes) {
            if (!entry->core.transfers_idle()) {
              idle = false;
              break;
            }
          }
          if (idle && dn.core.NodeAlive(d) && !dn.core.own_home_pending()) {
            break;
          }
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
