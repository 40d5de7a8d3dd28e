// Recovery subsystem: shared constants and conventions for surviving node
// death (docs/recovery.md).
//
// The subsystem has three cooperating parts:
//
//   * Replication (replica.h Replica, owned by each KernelCore): with
//     `replication = 1`, every GMM home forwards its mutations to its ring
//     successor (`HomeMap::BackupOf`) as epoch-stamped ReplicateReq records.
//     The primary holds client replies until the backup acks the record, so
//     an acked reply implies a durable backup copy. The backup maintains a
//     shadow GmmHome per primary plus the primary's at-most-once response
//     cache, so post-failover resends replay recorded responses instead of
//     re-executing.
//
//   * Membership (gmm/addr.h HomeMap + membership.h MembershipAgent, one
//     implementation for every runtime): the cluster moves through
//     monotonically increasing epochs. When the failure detector
//     declares a node dead, the coordinator — the lowest live rank, with
//     implicit succession — broadcasts EvictReq{node, epoch+1}; every
//     survivor bumps its epoch, re-routes the dead node's homes to the
//     backup, and the backup promotes its shadow. Requests stamped with a
//     stale epoch bounce with RetryResp, which doubles as an anti-entropy
//     gossip channel: whichever side lags adopts (or is pushed) the missed
//     eviction.
//
//   * Task handling (client.cc): joins of tasks on an evicted node fail
//     with kUnavailable; with `restart_tasks` on, tasks registered through
//     TaskRegistry::RegisterIdempotent are re-spawned from the client's
//     spawn ledger on the node now serving the dead host's ring slot.
//
// Self-healing (replica.cc + membership.cc): the instant
// tolerance is f = 1 — one backup per home — but the membership heals:
//
//   * Quorum-guarded eviction: a node only applies a *locally detected*
//     eviction while it can still reach a strict majority of the current
//     membership (the failure detector doubles as reachability). A severed
//     minority partition therefore parks (recovery.quorum_parks) — its
//     calls fail over and retry until the partition heals — instead of
//     evicting the majority and forking the global memory. Evictions
//     carried by EvictReq/RetryResp gossip are applied unconditionally:
//     they are proof a quorum-holding coordinator committed them.
//
//   * Re-replication: after a backup promotes, the new primary streams the
//     promoted home to its own ring successor in ack-paced StateChunkReq
//     frames (epoch-fenced, interleaved with live traffic) until the f = 1
//     redundancy is restored (recovery.rereplications). A *second*,
//     non-concurrent death is then survivable bit-for-bit.
//
//   * Rejoin: an evicted node that comes back learns of its eviction from
//     the coordinator's re-announcements, resets its kernel state, and asks
//     for re-admission (NodeJoinReq). The coordinator admits it under a
//     bumped epoch (recovery.rejoins), the current holder of its ring slot
//     hands the home state back over the same transfer machinery, and the
//     node serves — and accepts idempotent task placements — again.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <utility>
#include <variant>

namespace dse::recovery {

// Virtual milliseconds between two membership ticks in the simulator. Each
// tick, every node's MembershipAgent (membership.h) reads the fault
// injector's per-pair verdict in place of heartbeats — heartbeat traffic
// would perturb every timing figure — so a kill or sever is detected within
// one period, deterministically, and the protocol runs from there.
inline constexpr int kSimDetectionDelayMs = 5;

// Milliseconds a client pauses before each failover resend (virtual ones in
// the simulator). Evictions propagate at heartbeat cadence; resending full
// speed would only bounce again.
inline constexpr int kFailoverPauseMs = 5;

// Upper bound on failover resends of one call. Failovers do not consume the
// CallPolicy's attempt budget — the call is waiting out the eviction, not
// the network — but stay bounded so a cluster that never converges surfaces
// an error instead of spinning forever.
inline constexpr int kMaxFailovers = 2000;

// Payload bytes per StateChunkReq of a state transfer. Small enough to
// interleave with live traffic on the shared medium (the <25% interference
// budget of bench_ablation_replication), large enough that a typical home
// moves in a handful of round trips.
inline constexpr std::size_t kStateChunkBytes = 8192;

// State-transfer retransmission backoff, in membership ticks. A chunk no
// ack advanced is resent once it has sat unacked for kChunkResendTicks
// whole ticks; each resend doubles the wait, up to kMaxChunkResendTicks,
// and an ack that advances the transfer resets it. A chunk's round trip on
// the simulated SunOS bus under live traffic spans two to three 5 ms ticks,
// so an earlier resend would only queue a duplicate behind the original.
inline constexpr int kChunkResendTicks = 3;
inline constexpr int kMaxChunkResendTicks = 16;

// How many entries each at-most-once ledger remembers: the kernel's
// completed-request cache, a shadow's recorded responses and its applied
// record seqs. Large enough that a retry arriving within its deadline window
// always finds the original outcome.
inline constexpr std::size_t kDedupeWindow = 1024;

// A map that remembers only its kDedupeWindow newest insertions, forgetting
// the oldest first. V defaults to a unit type, making it a bounded set.
template <typename K, typename V = std::monostate>
class FifoWindow {
 public:
  // Inserts `key` unless it is already held (the first value wins). Returns
  // whether it was inserted.
  bool Insert(const K& key, V value = V{}) {
    if (!entries_.emplace(key, std::move(value)).second) return false;
    order_.push_back(key);
    if (order_.size() > kDedupeWindow) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }
  const V* Find(const K& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }
  bool Contains(const K& key) const { return entries_.count(key) > 0; }
  void Clear() {
    entries_.clear();
    order_.clear();
  }
  // Hands every entry, in key order, to fn(key, V&&) and empties the window.
  template <typename F>
  void DrainTo(F&& fn) {
    for (auto& [key, value] : entries_) fn(key, std::move(value));
    Clear();
  }

 private:
  std::map<K, V> entries_;
  std::deque<K> order_;
};

}  // namespace dse::recovery
