// Recovery subsystem: shared constants and conventions for surviving node
// death (docs/recovery.md).
//
// The subsystem has three cooperating parts, spread across the layers that
// own the relevant state:
//
//   * Replication (kernel_core.cc): with `replication = 1`, every GMM home
//     forwards its mutations to its ring successor (`HomeMap::BackupOf`) as
//     epoch-stamped ReplicateReq records. The primary holds client replies
//     until the backup acks the record, so an acked reply implies a durable
//     backup copy. The backup maintains a shadow GmmHome per primary plus
//     the primary's at-most-once response cache, so post-failover resends
//     replay recorded responses instead of re-executing.
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
// Self-healing (kernel_core.cc + membership.cc): the instant
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

}  // namespace dse::recovery
