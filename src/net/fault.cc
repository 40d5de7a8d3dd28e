#include "net/fault.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace dse::net {

namespace {

Status ParseDouble(const std::string& token, double* out) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(token, &used);
  } catch (...) {
    return InvalidArgument("bad number '" + token + "'");
  }
  if (used != token.size()) {
    return InvalidArgument("bad number '" + token + "'");
  }
  *out = v;
  return Status::Ok();
}

Status ParseProbability(const std::string& token, double* out) {
  DSE_RETURN_IF_ERROR(ParseDouble(token, out));
  if (*out < 0 || *out > 1) {
    return InvalidArgument("probability out of [0,1]: '" + token + "'");
  }
  return Status::Ok();
}

Status ParseU64(const std::string& token, std::uint64_t* out) {
  std::size_t used = 0;
  try {
    *out = std::stoull(token, &used);
  } catch (...) {
    return InvalidArgument("bad integer '" + token + "'");
  }
  if (used != token.size()) {
    return InvalidArgument("bad integer '" + token + "'");
  }
  return Status::Ok();
}

Status ParseNode(const std::string& token, NodeId* out) {
  std::uint64_t v = 0;
  DSE_RETURN_IF_ERROR(ParseU64(token, &v));
  if (v > 1'000'000) return InvalidArgument("node id out of range: " + token);
  *out = static_cast<NodeId>(v);
  return Status::Ok();
}

}  // namespace

Result<FaultPlan> ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;

    auto fail = [&](const Status& s) {
      return InvalidArgument("fault plan line " + std::to_string(line_no) +
                             ": " + std::string(s.message()));
    };
    auto arity = [&](size_t want) -> Status {
      if (tok.size() != want) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": directive '" + tok[0] + "' takes " +
                               std::to_string(want - 1) + " argument(s)");
      }
      return Status::Ok();
    };

    const std::string& d = tok[0];
    if (d == "seed") {
      DSE_RETURN_IF_ERROR(arity(2));
      std::uint64_t v = 0;
      if (Status s = ParseU64(tok[1], &v); !s.ok()) return fail(s);
      plan.seed = v;
    } else if (d == "drop" || d == "truncate" || d == "dup" ||
               d == "reorder") {
      DSE_RETURN_IF_ERROR(arity(2));
      double p = 0;
      if (Status s = ParseProbability(tok[1], &p); !s.ok()) return fail(s);
      if (d == "drop") plan.drop_p = p;
      if (d == "truncate") plan.truncate_p = p;
      if (d == "dup") plan.dup_p = p;
      if (d == "reorder") plan.reorder_p = p;
    } else if (d == "delay") {
      DSE_RETURN_IF_ERROR(arity(3));
      double p = 0;
      std::uint64_t n = 0;
      if (Status s = ParseProbability(tok[1], &p); !s.ok()) return fail(s);
      if (Status s = ParseU64(tok[2], &n); !s.ok()) return fail(s);
      if (n == 0 || n > 1'000'000) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": delay frame count must be in [1, 1e6]");
      }
      plan.delay_p = p;
      plan.delay_frames = static_cast<int>(n);
    } else if (d == "sever") {
      // sever A B after N [heal M]
      if (tok.size() != 5 && tok.size() != 7) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": expected 'sever A B after N [heal M]'");
      }
      if (tok[3] != "after" || (tok.size() == 7 && tok[5] != "heal")) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": expected 'sever A B after N [heal M]'");
      }
      FaultPlan::Sever s;
      if (Status st = ParseNode(tok[1], &s.a); !st.ok()) return fail(st);
      if (Status st = ParseNode(tok[2], &s.b); !st.ok()) return fail(st);
      if (Status st = ParseU64(tok[4], &s.after); !st.ok()) return fail(st);
      if (s.a == s.b) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": cannot sever a node from itself");
      }
      if (tok.size() == 7) {
        std::uint64_t heal = 0;
        if (Status st = ParseU64(tok[6], &heal); !st.ok()) return fail(st);
        s.heal = static_cast<std::int64_t>(heal);
      }
      plan.severs.push_back(s);
    } else if (d == "flink") {
      // flink A B after N [heal M]  (A, B are fabric router ids)
      if ((tok.size() != 5 && tok.size() != 7) || tok[3] != "after" ||
          (tok.size() == 7 && tok[5] != "heal")) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": expected 'flink A B after N [heal M]'");
      }
      FaultPlan::FabricSever s;
      NodeId a = -1, b = -1;
      if (Status st = ParseNode(tok[1], &a); !st.ok()) return fail(st);
      if (Status st = ParseNode(tok[2], &b); !st.ok()) return fail(st);
      s.a = static_cast<int>(a);
      s.b = static_cast<int>(b);
      if (Status st = ParseU64(tok[4], &s.after); !st.ok()) return fail(st);
      if (s.a == s.b) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": cannot sever a router from itself");
      }
      if (tok.size() == 7) {
        std::uint64_t heal = 0;
        if (Status st = ParseU64(tok[6], &heal); !st.ok()) return fail(st);
        s.heal = static_cast<std::int64_t>(heal);
      }
      plan.fabric_links.push_back(s);
    } else if (d == "kill") {
      // kill X at N [revive M]
      if (tok.size() != 4 && tok.size() != 6) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": expected 'kill X at N [revive M]'");
      }
      if (tok[2] != "at" || (tok.size() == 6 && tok[4] != "revive")) {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": expected 'kill X at N [revive M]'");
      }
      FaultPlan::Kill k;
      if (Status st = ParseNode(tok[1], &k.node); !st.ok()) return fail(st);
      if (Status st = ParseU64(tok[3], &k.at); !st.ok()) return fail(st);
      if (tok.size() == 6) {
        std::uint64_t revive = 0;
        if (Status st = ParseU64(tok[5], &revive); !st.ok()) return fail(st);
        if (revive <= k.at) {
          return InvalidArgument("fault plan line " + std::to_string(line_no) +
                                 ": revive frame must come after the kill");
        }
        k.revive = static_cast<std::int64_t>(revive);
      }
      plan.kills.push_back(k);
    } else if (d == "drain") {
      // drain X after N
      if (tok.size() != 4 || tok[2] != "after") {
        return InvalidArgument("fault plan line " + std::to_string(line_no) +
                               ": expected 'drain X after N'");
      }
      FaultPlan::Drain dr;
      if (Status st = ParseNode(tok[1], &dr.node); !st.ok()) return fail(st);
      if (Status st = ParseU64(tok[3], &dr.after); !st.ok()) return fail(st);
      plan.drains.push_back(dr);
    } else {
      return InvalidArgument("fault plan line " + std::to_string(line_no) +
                             ": unknown directive '" + d + "'");
    }
  }
  return plan;
}

Result<FaultPlan> LoadFaultPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open fault plan file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseFaultPlan(text.str());
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

FaultInjector::Link& FaultInjector::LinkFor(NodeId src, NodeId dst) {
  const auto key = std::make_pair(src, dst);
  auto it = links_.find(key);
  if (it == links_.end()) {
    // The stream depends only on (seed, src, dst), never on the order links
    // first carry traffic — required for cross-runtime replay.
    const std::uint64_t link_seed =
        plan_.seed ^ (static_cast<std::uint64_t>(src + 1) << 32) ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst + 1));
    it = links_.emplace(key, Link{0, Rng(link_seed)}).first;
  }
  return it->second;
}

FaultAction FaultInjector::OnSend(NodeId src, NodeId dst,
                                  std::uint64_t payload_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_frames_;

  // Kill schedules fire on the global frame count; the triggering frame is
  // already subject to the crash. A revive lifts the frame blackout once its
  // own global frame count passes — the node's state is whatever it was at
  // the kill; re-admission is the membership layer's job.
  if (kill_fired_.size() != plan_.kills.size()) {
    kill_fired_.assign(plan_.kills.size(), 0);
    kill_revived_.assign(plan_.kills.size(), 0);
  }
  for (size_t i = 0; i < plan_.kills.size(); ++i) {
    const FaultPlan::Kill& k = plan_.kills[i];
    if (!kill_fired_[i] && total_frames_ >= k.at) {
      kill_fired_[i] = 1;
      ++kills_fired_;
      dead_.insert(k.node);
    }
    if (kill_fired_[i] && !kill_revived_[i] && k.revive >= 0 &&
        total_frames_ >= static_cast<std::uint64_t>(k.revive)) {
      kill_revived_[i] = 1;
      dead_.erase(k.node);
    }
  }
  // Drain schedules fire on the global frame count too, but drop nothing:
  // the membership layer polls NodeDraining() and runs the handoff protocol.
  if (drain_fired_.size() != plan_.drains.size()) {
    drain_fired_.assign(plan_.drains.size(), 0);
  }
  for (size_t i = 0; i < plan_.drains.size(); ++i) {
    const FaultPlan::Drain& dr = plan_.drains[i];
    if (!drain_fired_[i] && total_frames_ >= dr.after) {
      drain_fired_[i] = 1;
      ++drains_fired_;
      draining_.insert(dr.node);
    }
  }

  if (dead_.count(src) > 0 || dead_.count(dst) > 0) {
    ++dead_drops_;
    return FaultAction{false, false, -1, 0};
  }

  // Severs count frames on the unordered pair (both directions); heals lift
  // them on the global frame count.
  const auto pair_key = std::make_pair(std::min(src, dst), std::max(src, dst));
  const std::uint64_t pair_n = ++pair_frames_[pair_key];
  for (const FaultPlan::Sever& s : plan_.severs) {
    const auto sk = std::make_pair(std::min(s.a, s.b), std::max(s.a, s.b));
    if (sk == pair_key && pair_n > s.after &&
        !(s.heal >= 0 &&
          total_frames_ >= static_cast<std::uint64_t>(s.heal))) {
      ++severed_drops_;
      return FaultAction{false, false, -1, 0};
    }
  }

  Link& link = LinkFor(src, dst);
  ++link.frames;

  // Draw every configured probability each frame so a link's stream position
  // is a pure function of its frame count (outcome-independent).
  const bool drop = plan_.drop_p > 0 && link.rng.NextBool(plan_.drop_p);
  const bool trunc =
      plan_.truncate_p > 0 && link.rng.NextBool(plan_.truncate_p);
  const bool dup = plan_.dup_p > 0 && link.rng.NextBool(plan_.dup_p);
  const bool delay = plan_.delay_p > 0 && link.rng.NextBool(plan_.delay_p);
  const bool reorder =
      plan_.reorder_p > 0 && link.rng.NextBool(plan_.reorder_p);

  FaultAction act;
  if (drop) {
    ++dropped_;
    act.deliver = false;
  } else if (trunc && payload_bytes > 0) {
    ++truncated_;
    act.truncate_to =
        static_cast<std::int64_t>(link.rng.NextBelow(payload_bytes));
  } else if (dup) {
    ++duplicated_;
    act.duplicate = true;
  } else if (delay) {
    ++delayed_;
    act.deliver = false;
    act.delay_frames = plan_.delay_frames;
  } else if (reorder) {
    ++reordered_;
    act.deliver = false;
    act.delay_frames = 1;
  }
  return act;
}

bool FaultInjector::NodeDead(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_.count(node) > 0;
}

bool FaultInjector::NodeDraining(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_.count(node) > 0;
}

bool FaultInjector::LinkSevered(NodeId a, NodeId b) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto pair_key = std::make_pair(std::min(a, b), std::max(a, b));
  const auto it = pair_frames_.find(pair_key);
  const std::uint64_t pair_n = it == pair_frames_.end() ? 0 : it->second;
  for (const FaultPlan::Sever& s : plan_.severs) {
    const auto sk = std::make_pair(std::min(s.a, s.b), std::max(s.a, s.b));
    // The drop path pre-increments the pair counter, so its `> after` check
    // sees the in-flight frame; this query does not, hence `>=`: it answers
    // "would a frame sent NOW be dropped?" — in particular an `after 0`
    // sever is severed even on a pair that never carried a frame (the sim
    // has no heartbeats to prime the counter).
    if (sk == pair_key && pair_n >= s.after &&
        !(s.heal >= 0 &&
          total_frames_ >= static_cast<std::uint64_t>(s.heal))) {
      return true;
    }
  }
  return false;
}

void FaultInjector::KillNow(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_.insert(node).second) ++kills_fired_;
}

MetricsSnapshot FaultInjector::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  auto put = [&snap](const char* name, std::uint64_t v) {
    if (v != 0) snap[name] = v;
  };
  put("fault.frames_seen", total_frames_);
  put("fault.injected.drop", dropped_);
  put("fault.injected.truncate", truncated_);
  put("fault.injected.dup", duplicated_);
  put("fault.injected.delay", delayed_);
  put("fault.injected.reorder", reordered_);
  put("fault.injected.sever_drop", severed_drops_);
  put("fault.injected.dead_drop", dead_drops_);
  put("fault.killed_nodes", kills_fired_);
  put("fault.drained_nodes", drains_fired_);
  return snap;
}

FaultyEndpoint::FaultyEndpoint(Endpoint* inner, FaultInjector* injector,
                               ImmunePredicate immune)
    : inner_(inner), injector_(injector), immune_(std::move(immune)) {}

Status FaultyEndpoint::Send(NodeId dst, std::vector<std::uint8_t> payload) {
  if (immune_ && immune_(payload)) {
    const std::uint64_t bytes = payload.size();
    const Status s = inner_->Send(dst, std::move(payload));
    if (s.ok()) NoteSend(bytes);
    return s;
  }

  const FaultAction act = injector_->OnSend(self(), dst, payload.size());
  return Carry(dst, std::move(payload), act);
}

std::optional<Status> FaultyEndpoint::ShapeLoopback(const EncodeFn& encode) {
  std::vector<std::uint8_t> payload = encode();
  if (immune_ && immune_(payload)) return std::nullopt;
  const FaultAction act = injector_->OnSend(self(), self(), payload.size());
  if (act.deliver && !act.duplicate && act.truncate_to < 0) {
    // A clean frame passing a loopback link with held frames must release
    // them behind it, which only the carried path does.
    std::lock_guard<std::mutex> lock(mu_);
    if (!delayed_.Holds(self(), self())) return std::nullopt;
  }
  return Carry(self(), std::move(payload), act);
}

void FaultyEndpoint::SetReceiveHook(ReceiveHook hook) {
  inner_->SetReceiveHook([this, hook = std::move(hook)](const Delivery& d) {
    if (!hook(d)) return false;
    NoteRecv(d.payload.size());
    return true;
  });
}

Status FaultyEndpoint::Carry(NodeId dst, std::vector<std::uint8_t> payload,
                             const FaultAction& act) {
  // Frames released by this frame's passage deliver after it; collect them
  // now (under the lock) and forward after the current frame goes out. The
  // current frame ages only previously-held frames — holding happens after
  // the aging step so a frame never releases itself.
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    due = delayed_.OnFramePassed(self(), dst);
    if (act.delay_frames > 0) {
      delayed_.Hold(self(), dst, {dst, std::move(payload)},
                    act.delay_frames);
    }
  }

  Status result = Status::Ok();
  if (act.deliver) {
    if (act.truncate_to >= 0) {
      payload.resize(static_cast<size_t>(act.truncate_to));
    }
    std::vector<std::uint8_t> copy;
    if (act.duplicate) copy = payload;
    const std::uint64_t bytes = payload.size();
    result = inner_->Send(dst, std::move(payload));
    if (result.ok()) NoteSend(bytes);
    if (act.duplicate && result.ok()) {
      const std::uint64_t copy_bytes = copy.size();
      if (inner_->Send(dst, std::move(copy)).ok()) NoteSend(copy_bytes);
    }
  }
  for (auto& [d, frame] : due) {
    // Re-check liveness at release time: a kill that fired while the frame
    // sat in the delay line must swallow it, or a stale write from a node
    // now considered dead could apply after its backup was promoted.
    if (injector_->NodeDead(self()) || injector_->NodeDead(d)) continue;
    const std::uint64_t bytes = frame.size();
    if (inner_->Send(d, std::move(frame)).ok()) NoteSend(bytes);
  }
  // Dropped/held frames report success: a sender cannot observe a lossy
  // wire at send time.
  return result;
}

std::optional<Delivery> FaultyEndpoint::Recv() {
  std::optional<Delivery> d = inner_->Recv();
  if (d) NoteRecv(d->payload.size());
  return d;
}

std::optional<Delivery> FaultyEndpoint::TryRecv() {
  std::optional<Delivery> d = inner_->TryRecv();
  if (d) NoteRecv(d->payload.size());
  return d;
}

}  // namespace dse::net
