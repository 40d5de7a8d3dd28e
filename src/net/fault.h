// Deterministic fault injection for the DSE fabrics.
//
// A FaultPlan is a seeded schedule of frame-level faults (drop, duplicate,
// delay, truncate, reorder), link severs (partitions) and node kills. The
// FaultInjector turns the plan into per-frame verdicts; because every random
// draw comes from a per-link SplitMix64 stream derived only from
// (seed, src, dst) and the frame's position on that link, the same plan
// replays the same decision sequence on every runtime — the in-process
// fabric, the TCP fabric and the simulator's ethernet model all consult the
// same injector logic.
//
// Delays are expressed in *frame counts* ("hold this frame until N more
// frames have passed on the link"), not wall time, so a schedule means the
// same thing under virtual and real time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/endpoint.h"

namespace dse::net {

// Declarative fault schedule. Probabilities are per frame, evaluated on the
// sending side; a frame is subject to at most one probabilistic fault (first
// match in the order drop, truncate, duplicate, delay, reorder).
struct FaultPlan {
  std::uint64_t seed = 1;

  double drop_p = 0;      // frame silently discarded
  double truncate_p = 0;  // frame cut to a random prefix (decoder must cope)
  double dup_p = 0;       // frame delivered twice
  double delay_p = 0;     // frame held for `delay_frames` later frames
  int delay_frames = 1;
  double reorder_p = 0;   // frame swapped with the next one on its link

  // Cuts both directions between `a` and `b` once the pair has carried
  // `after` frames (a partition that develops mid-run). With `heal` >= 0 the
  // cut is lifted once the injector has seen `heal` frames in total — the
  // partition mends and the membership layer can unpark / rejoin.
  struct Sever {
    NodeId a = -1;
    NodeId b = -1;
    std::uint64_t after = 0;
    std::int64_t heal = -1;  // global frame count; -1 = never heals
  };
  // Crashes `node` once the injector has seen `at` frames in total: from
  // then on every frame from or to the node is discarded. With `revive` >= 0
  // the node comes back (frames flow again) once the injector has seen
  // `revive` frames in total; the membership layer then re-admits it.
  struct Kill {
    NodeId node = -1;
    std::uint64_t at = 0;
    std::int64_t revive = -1;  // global frame count; -1 = stays dead
  };
  // Planned maintenance: once the injector has seen `after` frames in total,
  // `node` is asked to drain (graceful handoff + eviction + rejoin). Unlike a
  // kill, the injector drops nothing — the drain protocol itself takes the
  // node out of and back into the ring; the injector only fires the trigger
  // deterministically.
  struct Drain {
    NodeId node = -1;
    std::uint64_t after = 0;
  };
  std::vector<Sever> severs = {};
  std::vector<Kill> kills = {};
  std::vector<Drain> drains = {};

  // Cuts one routed-fabric link (between routers `a` and `b`, not node
  // endpoints) once the fabric has carried `after` frames; with `heal` >= 0
  // the link comes back at that fabric frame count. Only meaningful under
  // the simulator's `--medium fabric`: the FaultInjector itself ignores
  // these, the RoutedFabricMedium interprets them (traffic reroutes along
  // surviving paths, or partitions the cluster if none remain).
  struct FabricSever {
    int a = -1;  // router id
    int b = -1;  // router id
    std::uint64_t after = 0;
    std::int64_t heal = -1;  // fabric frame count; -1 = never heals
  };
  std::vector<FabricSever> fabric_links = {};

  bool enabled() const {
    return drop_p > 0 || truncate_p > 0 || dup_p > 0 || delay_p > 0 ||
           reorder_p > 0 || !severs.empty() || !kills.empty() ||
           !drains.empty() || !fabric_links.empty();
  }
};

// Parses the line-based plan format (see docs/fault_model.md):
//   seed 42
//   drop 0.05
//   truncate 0.01
//   dup 0.1
//   delay 0.02 3
//   reorder 0.02
//   sever 0 1 after 100
//   sever 0 1 after 100 heal 900
//   flink 2 3 after 100
//   flink 2 3 after 100 heal 900
//   kill 3 at 60
//   kill 3 at 60 revive 700
//   drain 2 after 400
// '#' starts a comment; unknown directives and malformed values are errors.
Result<FaultPlan> ParseFaultPlan(const std::string& text);

// Reads and parses a plan file.
Result<FaultPlan> LoadFaultPlan(const std::string& path);

// Verdict for one frame.
struct FaultAction {
  bool deliver = true;            // forward the frame now
  bool duplicate = false;         // forward a second copy right behind it
  std::int64_t truncate_to = -1;  // >= 0: cut the payload to this many bytes
  int delay_frames = 0;  // > 0: hold; release after this many later frames
};

// Stateful plan interpreter. Thread-safe; one instance serves every node of
// a cluster so kill schedules ("at frame N") see the global frame order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Decides the fate of one frame about to leave `src` for `dst`.
  FaultAction OnSend(NodeId src, NodeId dst, std::uint64_t payload_bytes);

  // True once a kill schedule has triggered for `node`.
  bool NodeDead(NodeId node) const;

  // True once a drain schedule has triggered for `node`. The membership
  // layer polls this (like kill revives) to start the graceful handoff.
  bool NodeDraining(NodeId node) const;

  // True while the pair (a, b) is severed (the cut fired and has not healed).
  bool LinkSevered(NodeId a, NodeId b) const;

  // Kills `node` immediately, outside any schedule (tests drive a second,
  // condition-gated death with this — e.g. "after re-replication reported
  // complete"). Counted like a scheduled kill.
  void KillNow(NodeId node);

  const FaultPlan& plan() const { return plan_; }

  // Injected-fault tallies (fault.injected.* / fault.killed_nodes),
  // suitable for merging into an SSI stats view.
  MetricsSnapshot Counters() const;

 private:
  struct Link {
    std::uint64_t frames = 0;
    Rng rng;
  };
  Link& LinkFor(NodeId src, NodeId dst);  // callers hold mu_

  FaultPlan plan_;
  mutable std::mutex mu_;
  std::uint64_t total_frames_ = 0;
  std::map<std::pair<NodeId, NodeId>, Link> links_;
  // Combined frame count per unordered pair (sever thresholds).
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> pair_frames_;
  std::set<NodeId> dead_;
  std::set<NodeId> draining_;
  std::vector<char> kill_fired_;    // one flag per plan kill entry
  std::vector<char> kill_revived_;  // one flag per plan kill entry
  std::vector<char> drain_fired_;   // one flag per plan drain entry
  std::uint64_t drains_fired_ = 0;
  std::uint64_t kills_fired_ = 0;   // kill events ever fired (revives don't
                                    // decrement — it counts deaths, not dead)

  std::uint64_t dropped_ = 0;
  std::uint64_t truncated_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t severed_drops_ = 0;
  std::uint64_t dead_drops_ = 0;
};

// Holding pen for delayed frames: one queue per link, frames age by
// link-frame count. Both the endpoint wrapper and the simulator's delivery
// path use it so "delay by N frames" means the same thing everywhere.
template <typename Frame>
class DelayLine {
 public:
  void Hold(NodeId src, NodeId dst, Frame frame, int frames_to_wait) {
    held_[{src, dst}].push_back(Entry{std::move(frame), frames_to_wait});
  }

  // Notes that one frame just passed on (src, dst); returns the held frames
  // whose wait expired, in hold order.
  std::vector<Frame> OnFramePassed(NodeId src, NodeId dst) {
    std::vector<Frame> due;
    const auto it = held_.find({src, dst});
    if (it == held_.end()) return due;
    for (auto& e : it->second) --e.remaining;
    while (!it->second.empty() && it->second.front().remaining <= 0) {
      due.push_back(std::move(it->second.front().frame));
      it->second.pop_front();
    }
    if (it->second.empty()) held_.erase(it);
    return due;
  }

  bool empty() const { return held_.empty(); }
  bool Holds(NodeId src, NodeId dst) const {
    return held_.count({src, dst}) > 0;
  }

  // Discards every held frame travelling from or to `node`. Recovery calls
  // this when a node is evicted: a write the dead primary sent before the
  // kill but still sitting in a delay queue must not surface after the
  // backup has been promoted (it would silently overwrite newer state).
  // Returns the number of frames dropped.
  size_t DropNode(NodeId node) {
    size_t dropped = 0;
    for (auto it = held_.begin(); it != held_.end();) {
      if (it->first.first == node || it->first.second == node) {
        dropped += it->second.size();
        it = held_.erase(it);
      } else {
        ++it;
      }
    }
    return dropped;
  }

 private:
  struct Entry {
    Frame frame;
    int remaining = 0;
  };
  std::map<std::pair<NodeId, NodeId>, std::deque<Entry>> held_;
};

// Endpoint decorator that applies a FaultInjector's verdicts on the send
// path (receive passes through: faults happen "on the wire"). Frames the
// `immune` predicate accepts bypass injection entirely — runtimes exempt
// the Shutdown control message so teardown models an out-of-band channel.
// A frame to self that its sender would handle in place draws its verdict
// in ShapeLoopback, so local calls still count toward kill schedules and
// die with their node; only a clean verdict lets the caller skip the wire.
class FaultyEndpoint final : public Endpoint {
 public:
  using ImmunePredicate =
      std::function<bool(const std::vector<std::uint8_t>&)>;

  FaultyEndpoint(Endpoint* inner, FaultInjector* injector,
                 ImmunePredicate immune = nullptr);

  NodeId self() const override { return inner_->self(); }
  int world_size() const override { return inner_->world_size(); }
  Status Send(NodeId dst, std::vector<std::uint8_t> payload) override;
  std::optional<Delivery> Recv() override;
  std::optional<Delivery> TryRecv() override;
  void Shutdown() override { inner_->Shutdown(); }
  // Installs on the inner endpoint; consumed frames count here too.
  void SetReceiveHook(ReceiveHook hook) override;
  std::optional<Status> ShapeLoopback(const EncodeFn& encode) override;

 private:
  // Carries `payload` to `dst` under the verdict `act` already drawn for it.
  Status Carry(NodeId dst, std::vector<std::uint8_t> payload,
               const FaultAction& act);

  Endpoint* inner_;
  FaultInjector* injector_;
  ImmunePredicate immune_;
  std::mutex mu_;  // guards delayed_ (tasks send concurrently)
  DelayLine<std::pair<NodeId, std::vector<std::uint8_t>>> delayed_;
};

}  // namespace dse::net
