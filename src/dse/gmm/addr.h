// Global-memory address layout and routing.
//
// A GlobalAddr encodes everything a kernel needs to route an access — no
// descriptor lookup, no directory round-trip:
//
//   bits 63..56  kind      (0 = node-homed, 1 = striped)
//   bits 55..48  param     (kind 0: home node; kind 1: log2 block size)
//   bits 47..0   offset    (within that kind's arena)
//
// * node-homed: the whole allocation lives on one node (good for per-worker
//   buffers and owner-computes layouts).
// * striped: consecutive blocks of 2^param bytes rotate across all nodes
//   (good for large shared arrays — this is the PE "global memory slice"
//   model of the paper's Figure 1).
//
// Global memory is zero-initialized: a read of never-written bytes returns
// zeros, like anonymous mmap. The master allocator (node 0) hands out
// disjoint ranges; access requests are split client-side so no request
// crosses a home boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "dse/ids.h"

namespace dse::gmm {

using GlobalAddr = std::uint64_t;

inline constexpr GlobalAddr kNullAddr = 0;
inline constexpr std::uint64_t kOffsetBits = 48;
inline constexpr std::uint64_t kOffsetMask = (1ULL << kOffsetBits) - 1;

// Cache/invalidation granularity for node-homed memory (striped memory uses
// its own stripe block as the unit).
inline constexpr std::uint64_t kHomedBlockBytes = 1024;

enum class AddrKind : std::uint8_t { kNodeHomed = 0, kStriped = 1 };

// Striped block sizes must be powers of two in this range.
inline constexpr int kMinStripeLog2 = 6;    // 64 B
inline constexpr int kMaxStripeLog2 = 24;   // 16 MiB

inline GlobalAddr MakeAddr(AddrKind kind, std::uint8_t param,
                           std::uint64_t offset) {
  DSE_CHECK(offset <= kOffsetMask);
  return (static_cast<std::uint64_t>(kind) << 56) |
         (static_cast<std::uint64_t>(param) << 48) | offset;
}

inline AddrKind KindOf(GlobalAddr addr) {
  return static_cast<AddrKind>(addr >> 56);
}
inline std::uint8_t ParamOf(GlobalAddr addr) {
  return static_cast<std::uint8_t>((addr >> 48) & 0xFF);
}
inline std::uint64_t OffsetOf(GlobalAddr addr) { return addr & kOffsetMask; }

// Stripe block size in bytes for a striped address.
inline std::uint64_t StripeBytes(GlobalAddr addr) {
  return 1ULL << ParamOf(addr);
}

// Home node of one byte.
inline NodeId HomeOf(GlobalAddr addr, int num_nodes) {
  DSE_CHECK(num_nodes > 0);
  if (KindOf(addr) == AddrKind::kNodeHomed) {
    const auto home = static_cast<NodeId>(ParamOf(addr));
    DSE_CHECK_MSG(home < num_nodes, "homed address for node outside cluster");
    return home;
  }
  const std::uint64_t block = OffsetOf(addr) >> ParamOf(addr);
  return static_cast<NodeId>(block % static_cast<std::uint64_t>(num_nodes));
}

// Coherence-block id (invalidate/copyset granularity) of one byte.
inline std::uint64_t BlockIndexOf(GlobalAddr addr) {
  if (KindOf(addr) == AddrKind::kNodeHomed) {
    return OffsetOf(addr) / kHomedBlockBytes;
  }
  return OffsetOf(addr) >> ParamOf(addr);
}

// First address of the coherence block containing `addr`.
inline GlobalAddr BlockBaseOf(GlobalAddr addr) {
  const std::uint64_t block_bytes = KindOf(addr) == AddrKind::kNodeHomed
                                        ? kHomedBlockBytes
                                        : StripeBytes(addr);
  const std::uint64_t off = OffsetOf(addr) / block_bytes * block_bytes;
  return MakeAddr(KindOf(addr), ParamOf(addr), off);
}

inline std::uint64_t BlockBytesOf(GlobalAddr addr) {
  return KindOf(addr) == AddrKind::kNodeHomed ? kHomedBlockBytes
                                              : StripeBytes(addr);
}

// Epoch-aware home map for the recovery subsystem (docs/recovery.md).
//
// HomeOf/LockHome stay pure functions of the address — they name the
// *natural* home. The HomeMap layers cluster membership on top: it tracks
// which nodes are alive and which epoch the membership is in, and routes a
// natural home to the node currently serving it (the natural home while it
// lives, else the next live node in ring order — the same node that held
// the home's replica as its backup). Every node keeps its own HomeMap and
// advances it only via EvictReq, so maps agree whenever epochs agree.
class HomeMap {
 public:
  HomeMap() = default;
  explicit HomeMap(int num_nodes)
      : alive_(num_nodes, true), admitted_at_(num_nodes, 0) {}

  std::uint32_t epoch() const { return epoch_; }
  int num_nodes() const { return static_cast<int>(alive_.size()); }
  int num_alive() const {
    int n = 0;
    for (bool a : alive_) n += a ? 1 : 0;
    return n;
  }
  bool IsAlive(NodeId node) const {
    return node >= 0 && node < num_nodes() && alive_[node];
  }

  // Marks `node` dead and enters `new_epoch` (monotonic). Returns false if
  // the node was already evicted (duplicate EvictReq), or if the eviction is
  // no newer than the node's latest admission here — a delayed copy from
  // before the rejoin must not evict a serving member without an epoch
  // bump.
  bool Evict(NodeId node, std::uint32_t new_epoch) {
    if (!IsAlive(node) || new_epoch <= admitted_at_[node]) return false;
    alive_[node] = false;
    if (new_epoch > epoch_) epoch_ = new_epoch;
    last_evicted_ = node;
    if (last_admitted_ == node) last_admitted_ = -1;
    return true;
  }

  // Re-admits an evicted node under `new_epoch` (rejoin). Returns false if
  // the node is already a member or the epoch is not ahead of ours — an
  // admission gossiped out of order with the eviction it supersedes must not
  // resurrect a node the newer epoch evicted.
  bool Admit(NodeId node, std::uint32_t new_epoch) {
    if (node < 0 || node >= num_nodes() || alive_[node]) return false;
    if (new_epoch <= epoch_) return false;
    alive_[node] = true;
    epoch_ = new_epoch;
    admitted_at_[node] = new_epoch;
    if (last_evicted_ == node) last_evicted_ = -1;
    last_admitted_ = node;
    return true;
  }

  // Installs a full membership view (the joiner's own catch-up from a
  // NodeJoinResp — its local view is arbitrarily stale).
  void InstallView(const std::vector<std::uint8_t>& alive,
                   std::uint32_t new_epoch) {
    for (size_t i = 0; i < alive_.size() && i < alive.size(); ++i) {
      alive_[i] = alive[i] != 0;
      // The view already reflects every change up to new_epoch.
      if (alive_[i]) admitted_at_[i] = new_epoch;
    }
    epoch_ = new_epoch;
    last_evicted_ = -1;
    last_admitted_ = -1;
  }

  std::vector<std::uint8_t> AliveBitmap() const {
    std::vector<std::uint8_t> out(alive_.size(), 0);
    for (size_t i = 0; i < alive_.size(); ++i) out[i] = alive_[i] ? 1 : 0;
    return out;
  }

  // Strict majority of the current membership (the quorum an eviction needs
  // unless overridden by --min-quorum).
  int Majority() const { return num_alive() / 2 + 1; }

  // Node currently serving `natural` home: itself while alive, else the
  // first live successor in ring order. Requires at least one live node.
  NodeId Route(NodeId natural) const {
    const int n = num_nodes();
    DSE_CHECK(natural >= 0 && natural < n);
    for (int i = 0; i < n; ++i) {
      const NodeId cand = static_cast<NodeId>((natural + i) % n);
      if (alive_[cand]) return cand;
    }
    DSE_CHECK_MSG(false, "no live node to route to");
    return -1;
  }

  // Replica target for `node`'s home: the next live node in ring order, or
  // -1 when `node` is the only live node.
  NodeId BackupOf(NodeId node) const {
    const int n = num_nodes();
    DSE_CHECK(node >= 0 && node < n);
    for (int i = 1; i < n; ++i) {
      const NodeId cand = static_cast<NodeId>((node + i) % n);
      if (alive_[cand]) return cand;
    }
    return -1;
  }

  // Eviction coordinator: the lowest live rank.
  NodeId Coordinator() const {
    for (int i = 0; i < num_nodes(); ++i) {
      if (alive_[i]) return static_cast<NodeId>(i);
    }
    return -1;
  }

  // Most recently evicted node (-1 if none) — piggybacked on RetryResp so a
  // lagging peer can repair its map without waiting for the broadcast.
  NodeId last_evicted() const { return last_evicted_; }
  // Most recently re-admitted node still a member (-1 if none) — what the
  // coordinator re-announces to a member that missed the admission.
  NodeId last_admitted() const { return last_admitted_; }

 private:
  std::uint32_t epoch_ = 0;
  NodeId last_evicted_ = -1;
  NodeId last_admitted_ = -1;
  std::vector<bool> alive_;
  // Epoch of each node's latest admission (0: a member since boot).
  std::vector<std::uint32_t> admitted_at_;
};

// One contiguous piece of an access that stays within a single home.
struct Chunk {
  GlobalAddr addr = 0;
  std::uint64_t len = 0;
  NodeId home = -1;
  std::uint64_t byte_offset = 0;  // offset of this chunk within the access
};

// Splits [addr, addr+len) into chunks that never cross a home boundary.
// Node-homed ranges yield one chunk; striped ranges yield one per touched
// stripe block. The access must stay within one kind/param region.
std::vector<Chunk> SplitAccess(GlobalAddr addr, std::uint64_t len,
                               int num_nodes);

}  // namespace dse::gmm
