#include "dse/client.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/log.h"

namespace dse {
namespace {

// Fetches the typed body out of a response envelope or reports a protocol
// error (a matched req_id with the wrong body type means a broken peer).
template <typename T>
Result<T> Expect(Result<proto::Envelope> env) {
  if (!env.ok()) return env.status();
  if (auto* body = std::get_if<T>(&env->body)) return std::move(*body);
  return ProtocolError(std::string("unexpected response type ") +
                       std::string(proto::MsgTypeName(env->type())));
}

Status ErrorFrom(std::uint8_t code, const char* what) {
  if (code == 0) return Status::Ok();
  return Status(static_cast<ErrorCode>(code), what);
}

}  // namespace

TaskClient::TaskClient(RpcTransport* transport, KernelCore* core)
    : rpc_(transport, core),
      core_(core),
      spawn_rr_((core->self() + 1) % core->num_nodes()),
      reads_(core->metrics().counter("dsm.reads")),
      writes_(core->metrics().counter("dsm.writes")),
      atomics_(core->metrics().counter("dsm.atomics")),
      remote_misses_(core->metrics().counter("dsm.remote_misses")),
      lock_requests_(core->metrics().counter("sync.lock_requests")),
      barrier_enters_(core->metrics().counter("sync.barrier_enters")),
      batch_sent_(core->metrics().counter("gmm.batch.sent")),
      batch_sent_items_(core->metrics().counter("gmm.batch.sent_items")),
      batch_saved_msgs_(core->metrics().counter("gmm.batch.saved_msgs")),
      prefetch_issued_(core->metrics().counter("gmm.prefetch.issued")),
      prefetch_hits_(core->metrics().counter("gmm.prefetch.hits")),
      prefetch_wasted_(core->metrics().counter("gmm.prefetch.wasted")),
      wc_writes_buffered_(core->metrics().counter("gmm.wc.writes_buffered")),
      wc_merges_(core->metrics().counter("gmm.wc.merges")),
      wc_flushes_(core->metrics().counter("gmm.wc.flushes")),
      wc_flushed_spans_(core->metrics().counter("gmm.wc.flushed_spans")),
      task_restarts_(core->metrics().counter("recovery.restarts")) {}

TaskClient::~TaskClient() {
  if (!wc_.empty()) {
    const Status s = FlushWrites();
    if (!s.ok()) {
      DSE_LOG(kWarn) << "write-combine flush at task exit failed: "
                     << s.message();
    }
  }
}

Result<gmm::GlobalAddr> TaskClient::AllocStriped(std::uint64_t size,
                                                 std::uint8_t block_log2) {
  proto::AllocReq req;
  req.size = size;
  req.policy = proto::HomePolicy::kStriped;
  req.param = block_log2;
  auto resp =
      Expect<proto::AllocResp>(rpc_.Call(0, std::move(req), DataPolicy()));
  if (!resp.ok()) return resp.status();
  DSE_RETURN_IF_ERROR(ErrorFrom(resp->error, "alloc failed"));
  return resp->addr;
}

Result<gmm::GlobalAddr> TaskClient::AllocOnNode(std::uint64_t size,
                                                NodeId home) {
  proto::AllocReq req;
  req.size = size;
  req.policy = proto::HomePolicy::kOnNode;
  req.param = static_cast<std::uint8_t>(home);
  auto resp =
      Expect<proto::AllocResp>(rpc_.Call(0, std::move(req), DataPolicy()));
  if (!resp.ok()) return resp.status();
  DSE_RETURN_IF_ERROR(ErrorFrom(resp->error, "alloc failed"));
  return resp->addr;
}

Status TaskClient::Free(gmm::GlobalAddr addr) {
  DSE_RETURN_IF_ERROR(FlushWrites());
  auto resp =
      Expect<proto::FreeAck>(rpc_.Call(0, proto::FreeReq{addr}, DataPolicy()));
  if (!resp.ok()) return resp.status();
  return ErrorFrom(resp->error, "free failed");
}

std::vector<gmm::Chunk> TaskClient::SplitForAccess(gmm::GlobalAddr addr,
                                                   std::uint64_t len) const {
  std::vector<gmm::Chunk> chunks = gmm::SplitAccess(addr, len, num_nodes());
  if (!core_->read_cache_enabled()) return chunks;

  // Coherent accesses must map to exactly one block each. Striped chunks
  // already do (stripe == block); homed chunks may span several.
  std::vector<gmm::Chunk> out;
  out.reserve(chunks.size());
  for (const gmm::Chunk& c : chunks) {
    if (gmm::KindOf(c.addr) == gmm::AddrKind::kStriped) {
      out.push_back(c);
      continue;
    }
    std::uint64_t done = 0;
    while (done < c.len) {
      const gmm::GlobalAddr cur = c.addr + done;
      const std::uint64_t in_block =
          gmm::OffsetOf(cur) % gmm::kHomedBlockBytes;
      const std::uint64_t take =
          std::min(gmm::kHomedBlockBytes - in_block, c.len - done);
      out.push_back(gmm::Chunk{cur, take, c.home, c.byte_offset + done});
      done += take;
    }
  }
  return out;
}

namespace {

// Copies one read reply range into the destination buffer.
Status ApplyReadData(gmm::GlobalAddr resp_addr, bool block_fetch,
                     const std::vector<std::uint8_t>& data,
                     const gmm::Chunk& c, std::uint8_t* dst) {
  if (block_fetch) {
    // Block-widened reply: our range sits inside it. The service path has
    // already inserted the block into the cache.
    const std::uint64_t offset =
        gmm::OffsetOf(c.addr) - gmm::OffsetOf(resp_addr);
    if (offset + c.len > data.size()) {
      return ProtocolError("block fetch reply too small");
    }
    std::memcpy(dst + c.byte_offset, data.data() + offset, c.len);
    return Status::Ok();
  }
  if (data.size() != c.len) return ProtocolError("short read reply");
  std::memcpy(dst + c.byte_offset, data.data(), c.len);
  return Status::Ok();
}

}  // namespace

void TaskClient::NotePrefetchLookup(gmm::GlobalAddr block_base, bool hit) {
  const auto it = prefetched_.find(block_base);
  if (it == prefetched_.end()) return;
  prefetched_.erase(it);
  // A demand miss on a block we fetched ahead means an invalidation took it
  // before the stream got there — the prefetch was wasted work.
  if (hit) {
    prefetch_hits_->Add();
  } else {
    prefetch_wasted_->Add();
  }
}

void TaskClient::PlanPrefetch(gmm::GlobalAddr addr, std::uint64_t len,
                              std::vector<ReadItem>* items) {
  const int depth = core_->prefetch_depth();
  if (depth <= 0 || len == 0) return;

  const gmm::GlobalAddr first = gmm::BlockBaseOf(addr);
  const std::uint64_t block_bytes = gmm::BlockBytesOf(addr);
  const gmm::GlobalAddr next = gmm::BlockBaseOf(addr + len - 1) + block_bytes;
  const bool sequential = streak_ > 0 && first == next_expected_block_;
  streak_ = sequential ? streak_ + 1 : 1;
  next_expected_block_ = next;
  // Two consecutive ascending accesses establish a stream; fetch ahead of
  // where it will be next.
  if (streak_ < 2) return;

  for (int k = 0; k < depth; ++k) {
    const std::uint64_t off =
        gmm::OffsetOf(next) + static_cast<std::uint64_t>(k) * block_bytes;
    if (off + block_bytes - 1 > gmm::kOffsetMask) break;
    const gmm::GlobalAddr p = next + static_cast<std::uint64_t>(k) * block_bytes;
    const NodeId home = gmm::HomeOf(p, num_nodes());
    // Self-homed blocks are never cached, so reading them ahead buys nothing.
    if (home == core_->self()) continue;
    if (prefetched_.count(p) > 0 || core_->CacheContains(p)) continue;
    items->push_back(
        ReadItem{gmm::Chunk{p, block_bytes, home, 0}, true, true});
    prefetched_.insert(p);
    prefetch_issued_->Add();
  }
}

Status TaskClient::DispatchReads(const std::vector<ReadItem>& items,
                                 std::uint8_t* dst) {
  auto make_read = [](const ReadItem& it) {
    proto::ReadReq req;
    req.addr = it.c.addr;
    req.len = static_cast<std::uint32_t>(it.c.len);
    req.block_fetch = it.cacheable;
    return req;
  };

  // One call per destination when batching; one per item otherwise.
  std::vector<std::pair<NodeId, proto::Body>> calls;
  std::vector<std::vector<size_t>> call_items;
  bool prefetching = false;
  for (const ReadItem& it : items) prefetching |= it.prefetch;

  if (core_->batching_enabled()) {
    std::map<NodeId, std::vector<size_t>> groups;
    for (size_t i = 0; i < items.size(); ++i) {
      groups[items[i].c.home].push_back(i);
    }
    for (auto& [home, idxs] : groups) {
      if (idxs.size() == 1) {
        calls.emplace_back(home, make_read(items[idxs[0]]));
      } else {
        proto::BatchReq breq;
        breq.items.reserve(idxs.size());
        for (const size_t i : idxs) {
          proto::BatchItem bi;
          bi.op = proto::BatchOp::kRead;
          bi.addr = items[i].c.addr;
          bi.len = static_cast<std::uint32_t>(items[i].c.len);
          bi.block_fetch = items[i].cacheable;
          breq.items.push_back(std::move(bi));
        }
        batch_sent_->Add();
        batch_sent_items_->Add(idxs.size());
        batch_saved_msgs_->Add(idxs.size() - 1);
        calls.emplace_back(home, std::move(breq));
      }
      call_items.push_back(std::move(idxs));
    }
  } else {
    for (size_t i = 0; i < items.size(); ++i) {
      calls.emplace_back(items[i].c.home, make_read(items[i]));
      call_items.push_back({i});
    }
  }

  auto apply = [&](proto::Envelope env,
                   const std::vector<size_t>& idxs) -> Status {
    if (idxs.size() == 1) {
      const ReadItem& it = items[idxs[0]];
      auto resp = Expect<proto::ReadResp>(std::move(env));
      if (!resp.ok()) return resp.status();
      if (it.prefetch) return Status::Ok();  // cache-inserted on service path
      return ApplyReadData(resp->addr, resp->block_fetch, resp->data, it.c,
                           dst);
    }
    auto resp = Expect<proto::BatchResp>(std::move(env));
    if (!resp.ok()) return resp.status();
    if (resp->items.size() != idxs.size()) {
      return ProtocolError("batch reply item count mismatch");
    }
    for (size_t j = 0; j < idxs.size(); ++j) {
      const ReadItem& it = items[idxs[j]];
      if (it.prefetch) continue;
      const proto::BatchItemResp& bir = resp->items[j];
      DSE_RETURN_IF_ERROR(
          ApplyReadData(bir.addr, bir.block_fetch, bir.data, it.c, dst));
    }
    return Status::Ok();
  };

  // Multi-destination rounds go split-transaction whenever any fast-path
  // feature asks for it; read-ahead in particular exists to overlap with the
  // demand fetches it rides with.
  const bool many =
      calls.size() > 1 && (core_->pipelined_transfers() ||
                           core_->batching_enabled() || prefetching);
  if (many) {
    auto resps = rpc_.CallMany(std::move(calls), DataPolicy());
    if (!resps.ok()) return resps.status();
    for (size_t i = 0; i < call_items.size(); ++i) {
      DSE_RETURN_IF_ERROR(apply(std::move((*resps)[i]), call_items[i]));
    }
    return Status::Ok();
  }
  for (size_t i = 0; i < calls.size(); ++i) {
    auto resp =
        rpc_.Call(calls[i].first, std::move(calls[i].second), DataPolicy());
    if (!resp.ok()) return resp.status();
    DSE_RETURN_IF_ERROR(apply(std::move(*resp), call_items[i]));
  }
  return Status::Ok();
}

Status TaskClient::Read(gmm::GlobalAddr addr, void* out, std::uint64_t len) {
  auto* dst = static_cast<std::uint8_t*>(out);
  const bool cached = core_->read_cache_enabled();
  reads_->Add();

  // A read that overlaps buffered writes must observe them: flush first.
  if (core_->write_combine_enabled() && OverlapsBuffered(addr, len)) {
    DSE_RETURN_IF_ERROR(FlushWrites());
  }

  // Resolve cache hits first; everything left needs a home round trip.
  std::vector<ReadItem> items;
  for (const gmm::Chunk& c : SplitForAccess(addr, len)) {
    // Locally-homed data is never block-cached: the home does not track
    // itself in copysets (it would have to self-invalidate), and the local
    // kernel serves it over loopback anyway.
    const bool cacheable = cached && c.home != core_->self();
    if (cacheable) {
      const bool hit =
          core_->CacheLookup(c.addr, c.len, dst + c.byte_offset);
      NotePrefetchLookup(gmm::BlockBaseOf(c.addr), hit);
      if (hit) continue;
    }
    if (c.home != core_->self()) remote_misses_->Add();
    items.push_back(ReadItem{c, cacheable, false});
  }
  PlanPrefetch(addr, len, &items);
  if (items.empty()) return Status::Ok();
  return DispatchReads(items, dst);
}

Status TaskClient::DispatchWriteCalls(
    std::vector<std::pair<NodeId, proto::Body>> calls,
    const std::vector<std::uint32_t>& batch_sizes) {
  auto check_ack = [&](proto::Envelope env, std::uint32_t batch_size)
      -> Status {
    if (batch_size == 0) {
      auto ack = Expect<proto::WriteAck>(std::move(env));
      return ack.status();
    }
    auto resp = Expect<proto::BatchResp>(std::move(env));
    if (!resp.ok()) return resp.status();
    if (resp->items.size() != batch_size) {
      return ProtocolError("batch ack item count mismatch");
    }
    return Status::Ok();
  };

  const bool many =
      calls.size() > 1 &&
      (core_->pipelined_transfers() || core_->batching_enabled());
  if (many) {
    auto resps = rpc_.CallMany(std::move(calls), DataPolicy());
    if (!resps.ok()) return resps.status();
    for (size_t i = 0; i < resps->size(); ++i) {
      DSE_RETURN_IF_ERROR(check_ack(std::move((*resps)[i]), batch_sizes[i]));
    }
    return Status::Ok();
  }
  for (size_t i = 0; i < calls.size(); ++i) {
    auto resp =
        rpc_.Call(calls[i].first, std::move(calls[i].second), DataPolicy());
    if (!resp.ok()) return resp.status();
    DSE_RETURN_IF_ERROR(check_ack(std::move(*resp), batch_sizes[i]));
  }
  return Status::Ok();
}

Status TaskClient::SendWriteChunks(const std::vector<gmm::Chunk>& chunks,
                                   const std::uint8_t* p) {
  std::vector<std::pair<NodeId, proto::Body>> calls;
  std::vector<std::uint32_t> batch_sizes;

  auto make_req = [&](const gmm::Chunk& c) {
    proto::WriteReq req;
    req.addr = c.addr;
    req.data.assign(p + c.byte_offset, p + c.byte_offset + c.len);
    return req;
  };

  if (core_->batching_enabled()) {
    std::map<NodeId, std::vector<size_t>> groups;
    for (size_t i = 0; i < chunks.size(); ++i) {
      groups[chunks[i].home].push_back(i);
    }
    for (const auto& [home, idxs] : groups) {
      if (idxs.size() == 1) {
        calls.emplace_back(home, make_req(chunks[idxs[0]]));
        batch_sizes.push_back(0);
      } else {
        proto::BatchReq breq;
        breq.items.reserve(idxs.size());
        for (const size_t i : idxs) {
          const gmm::Chunk& c = chunks[i];
          proto::BatchItem bi;
          bi.op = proto::BatchOp::kWrite;
          bi.addr = c.addr;
          bi.data.assign(p + c.byte_offset, p + c.byte_offset + c.len);
          breq.items.push_back(std::move(bi));
        }
        batch_sent_->Add();
        batch_sent_items_->Add(idxs.size());
        batch_saved_msgs_->Add(idxs.size() - 1);
        batch_sizes.push_back(static_cast<std::uint32_t>(idxs.size()));
        calls.emplace_back(home, std::move(breq));
      }
    }
  } else {
    for (const gmm::Chunk& c : chunks) {
      calls.emplace_back(c.home, make_req(c));
      batch_sizes.push_back(0);
    }
  }
  return DispatchWriteCalls(std::move(calls), batch_sizes);
}

namespace {

// Write-combining buffer capacity: past either bound the buffer flushes
// itself so an unsynchronized burst cannot grow without limit.
constexpr size_t kWcMaxSpans = 32;
constexpr std::uint64_t kWcMaxBytes = 64 * 1024;

}  // namespace

bool TaskClient::OverlapsBuffered(gmm::GlobalAddr addr,
                                  std::uint64_t len) const {
  if (wc_.empty() || len == 0) return false;
  auto it = wc_.lower_bound(addr);
  if (it != wc_.begin()) {
    const auto prev = std::prev(it);
    if (prev->first + prev->second.data.size() > addr) return true;
  }
  return it != wc_.end() && it->first < addr + len;
}

void TaskClient::BufferWrite(const gmm::Chunk& c, const std::uint8_t* data) {
  const bool coherent = core_->read_cache_enabled();
  const gmm::GlobalAddr block = gmm::BlockBaseOf(c.addr);
  const gmm::GlobalAddr start = c.addr;
  const gmm::GlobalAddr end = c.addr + c.len;

  // Collect every existing span that overlaps or abuts the new range and is
  // allowed to coalesce with it (same home; same coherence block while the
  // invalidation protocol is on, since the home rejects block-crossing
  // writes). Overlapping spans MUST be absorbed — two buffered spans over
  // the same bytes would flush oldest-last.
  std::vector<std::map<gmm::GlobalAddr, WcSpan>::iterator> absorb;
  auto it = wc_.lower_bound(start);
  if (it != wc_.begin()) {
    const auto prev = std::prev(it);
    if (prev->first + prev->second.data.size() >= start) it = prev;
  }
  while (it != wc_.end() && it->first <= end) {
    const gmm::GlobalAddr s_end = it->first + it->second.data.size();
    const bool touches = s_end >= start;
    const bool allowed =
        it->second.home == c.home &&
        (!coherent || gmm::BlockBaseOf(it->first) == block);
    if (touches && allowed) {
      absorb.push_back(it);
    } else {
      DSE_CHECK_MSG(!(touches && it->first < end && s_end > start),
                    "buffered spans overlap across a merge boundary");
    }
    ++it;
  }

  if (absorb.empty()) {
    WcSpan s;
    s.home = c.home;
    s.data.assign(data, data + c.len);
    wc_bytes_ += c.len;
    wc_.emplace(start, std::move(s));
    return;
  }

  gmm::GlobalAddr new_start = std::min(start, absorb.front()->first);
  gmm::GlobalAddr new_end = end;
  for (const auto& a : absorb) {
    new_end = std::max<gmm::GlobalAddr>(new_end,
                                        a->first + a->second.data.size());
  }
  std::vector<std::uint8_t> merged(new_end - new_start);
  // Old spans first, the new write last: newest data wins on overlap.
  for (const auto& a : absorb) {
    std::memcpy(merged.data() + (a->first - new_start),
                a->second.data.data(), a->second.data.size());
    wc_bytes_ -= a->second.data.size();
  }
  std::memcpy(merged.data() + (start - new_start), data, c.len);
  for (const auto& a : absorb) wc_.erase(a);

  WcSpan s;
  s.home = c.home;
  s.data = std::move(merged);
  wc_bytes_ += s.data.size();
  wc_.emplace(new_start, std::move(s));
  wc_merges_->Add();
}

Status TaskClient::FlushWrites() {
  if (wc_.empty()) return Status::Ok();
  wc_flushes_->Add();
  wc_flushed_spans_->Add(wc_.size());

  std::map<gmm::GlobalAddr, WcSpan> spans;
  spans.swap(wc_);
  wc_bytes_ = 0;

  // Reuse the chunked-write sender by laying the spans out back to back in
  // one flat buffer addressed via byte_offset.
  std::vector<std::uint8_t> flat;
  std::vector<gmm::Chunk> chunks;
  chunks.reserve(spans.size());
  for (const auto& [span_start, span] : spans) {
    chunks.push_back(gmm::Chunk{span_start, span.data.size(), span.home,
                                flat.size()});
    flat.insert(flat.end(), span.data.begin(), span.data.end());
  }
  return SendWriteChunks(chunks, flat.data());
}

Status TaskClient::Write(gmm::GlobalAddr addr, const void* src,
                         std::uint64_t len) {
  writes_->Add();
  const auto* p = static_cast<const std::uint8_t*>(src);
  const bool cached = core_->read_cache_enabled();
  const std::vector<gmm::Chunk> chunks = SplitForAccess(addr, len);

  // Keep our own cached copy fresh *before* the write serializes: if a
  // conflicting remote write serializes after ours, its invalidation will
  // drop this block anyway.
  if (cached) {
    for (const gmm::Chunk& c : chunks) {
      core_->CacheUpdateLocal(c.addr, p + c.byte_offset, c.len);
    }
  }

  if (core_->write_combine_enabled()) {
    wc_writes_buffered_->Add();
    for (const gmm::Chunk& c : chunks) BufferWrite(c, p + c.byte_offset);
    if (wc_.size() > kWcMaxSpans || wc_bytes_ > kWcMaxBytes) {
      return FlushWrites();
    }
    return Status::Ok();
  }
  return SendWriteChunks(chunks, p);
}

Result<std::int64_t> TaskClient::AtomicFetchAdd(gmm::GlobalAddr addr,
                                                std::int64_t delta) {
  DSE_RETURN_IF_ERROR(FlushWrites());  // atomics are sync points
  atomics_->Add();
  proto::AtomicReq req;
  req.op = proto::AtomicOp::kFetchAdd;
  req.addr = addr;
  req.operand = delta;
  auto resp = Expect<proto::AtomicResp>(rpc_.Call(
      gmm::HomeOf(addr, num_nodes()), std::move(req), DataPolicy()));
  if (!resp.ok()) return resp.status();
  return resp->old_value;
}

Result<std::int64_t> TaskClient::AtomicCompareExchange(gmm::GlobalAddr addr,
                                                       std::int64_t expected,
                                                       std::int64_t desired) {
  DSE_RETURN_IF_ERROR(FlushWrites());  // atomics are sync points
  atomics_->Add();
  proto::AtomicReq req;
  req.op = proto::AtomicOp::kCompareExchange;
  req.addr = addr;
  req.operand = desired;
  req.expected = expected;
  auto resp = Expect<proto::AtomicResp>(rpc_.Call(
      gmm::HomeOf(addr, num_nodes()), std::move(req), DataPolicy()));
  if (!resp.ok()) return resp.status();
  return resp->old_value;
}

Status TaskClient::Lock(std::uint64_t lock_id) {
  DSE_RETURN_IF_ERROR(FlushWrites());
  lock_requests_->Add();
  auto resp = Expect<proto::LockGrant>(
      rpc_.Call(LockHome(lock_id), proto::LockReq{lock_id}, SyncPolicy()));
  return resp.status();
}

Status TaskClient::Unlock(std::uint64_t lock_id) {
  // Release semantics: everything written inside the critical section must
  // be home-visible before the lock can pass to the next holder.
  DSE_RETURN_IF_ERROR(FlushWrites());
  return rpc_.Post(LockHome(lock_id), proto::UnlockReq{lock_id});
}

Status TaskClient::Barrier(std::uint64_t barrier_id, int parties) {
  if (parties <= 0) return InvalidArgument("barrier needs parties >= 1");
  DSE_RETURN_IF_ERROR(FlushWrites());
  barrier_enters_->Add();
  proto::BarrierEnter req;
  req.barrier_id = barrier_id;
  req.parties = static_cast<std::uint32_t>(parties);
  auto resp = Expect<proto::BarrierRelease>(
      rpc_.Call(LockHome(barrier_id), std::move(req), SyncPolicy()));
  return resp.status();
}

Result<Gpid> TaskClient::Spawn(const std::string& task_name,
                               std::vector<std::uint8_t> arg,
                               NodeId node_hint) {
  DSE_RETURN_IF_ERROR(FlushWrites());  // the child may read our writes
  NodeId dst = node_hint;
  if (dst == kLeastLoaded) {
    // SSI scheduling: ask every kernel for its current load.
    std::uint32_t best_load = 0;
    dst = -1;
    for (NodeId n = 0; n < num_nodes(); ++n) {
      auto resp = Expect<proto::LoadResp>(
          rpc_.Call(n, proto::LoadReq{}, DataPolicy()));
      if (!resp.ok()) return resp.status();
      if (dst < 0 || resp->running_tasks < best_load) {
        best_load = resp->running_tasks;
        dst = n;
      }
    }
  } else if (dst < 0) {
    dst = spawn_rr_;
    spawn_rr_ = (spawn_rr_ + 1) % num_nodes();
  }
  if (dst >= num_nodes()) return InvalidArgument("spawn node out of range");
  proto::SpawnReq req;
  req.task_name = task_name;
  // With restart enabled the argument must outlive the spawn: a join that
  // finds the host evicted re-spawns the task from this ledger copy.
  SpawnRecord record;
  const bool keep_record = core_->restart_tasks();
  if (keep_record) {
    record.name = task_name;
    record.arg = arg;
    record.node = dst;
  }
  req.arg = std::move(arg);
  auto resp =
      Expect<proto::SpawnResp>(rpc_.Call(dst, std::move(req), DataPolicy()));
  if (!resp.ok()) return resp.status();
  DSE_RETURN_IF_ERROR(ErrorFrom(resp->error, "spawn failed"));
  if (keep_record) spawned_[resp->gpid] = std::move(record);
  return resp->gpid;
}

Result<std::vector<std::uint8_t>> TaskClient::Join(Gpid gpid) {
  DSE_RETURN_IF_ERROR(FlushWrites());
  auto resp =
      Expect<proto::JoinResp>(
          rpc_.Call(GpidNode(gpid), proto::JoinReq{gpid}, SyncPolicy()));
  if (!resp.ok()) return resp.status();
  if (static_cast<ErrorCode>(resp->error) == ErrorCode::kUnavailable &&
      core_->restart_tasks()) {
    // The task's host was evicted before it finished. Tasks registered
    // idempotent restart from the spawn ledger on the node now serving the
    // dead host's ring slot; the recursion is bounded because each restart
    // requires a further eviction of the replacement host. Everything else
    // surfaces kUnavailable below.
    auto it = spawned_.find(gpid);
    if (it != spawned_.end() && core_->TaskIdempotent(it->second.name)) {
      SpawnRecord record = std::move(it->second);
      spawned_.erase(it);
      task_restarts_->Add();
      auto regpid =
          Spawn(record.name, std::move(record.arg), core_->RouteOf(record.node));
      if (!regpid.ok()) return regpid.status();
      return Join(*regpid);
    }
  }
  spawned_.erase(gpid);
  DSE_RETURN_IF_ERROR(ErrorFrom(resp->error, "join failed"));
  return std::move(resp->result);
}

Status TaskClient::Print(Gpid gpid, const std::string& text) {
  proto::ConsoleOut msg;
  msg.gpid = gpid;
  msg.text = text;
  return rpc_.Post(0, std::move(msg));
}

Status TaskClient::PublishName(const std::string& name,
                               std::uint64_t value) {
  // Publishing a name often hands out a pointer to freshly written data.
  DSE_RETURN_IF_ERROR(FlushWrites());
  proto::NamePublish req;
  req.name = name;
  req.value = value;
  auto resp =
      Expect<proto::NameAck>(rpc_.Call(0, std::move(req), DataPolicy()));
  if (!resp.ok()) return resp.status();
  return ErrorFrom(resp->error, "publish failed");
}

Result<std::uint64_t> TaskClient::LookupName(const std::string& name) {
  auto resp = Expect<proto::NameResp>(
      rpc_.Call(0, proto::NameLookup{name}, DataPolicy()));
  if (!resp.ok()) return resp.status();
  DSE_RETURN_IF_ERROR(ErrorFrom(resp->error, "lookup failed"));
  return resp->value;
}

Result<std::uint64_t> TaskClient::SubmitJob(std::uint32_t tenant,
                                            const std::string& task_name,
                                            std::vector<std::uint8_t> arg,
                                            std::uint32_t gang,
                                            NodeId locality_hint) {
  DSE_RETURN_IF_ERROR(FlushWrites());  // the job may read our writes
  proto::JobSubmitReq req;
  req.tenant = tenant;
  req.task_name = task_name;
  req.arg = std::move(arg);
  req.gang = gang;
  req.locality_hint = locality_hint;
  auto resp = Expect<proto::JobSubmitResp>(
      rpc_.Call(0, std::move(req), DataPolicy()));
  if (!resp.ok()) return resp.status();
  DSE_RETURN_IF_ERROR(ErrorFrom(resp->error, "job submit refused"));
  return resp->job_id;
}

Result<std::map<std::string, std::uint64_t>> TaskClient::SchedStat() {
  auto resp = Expect<proto::SchedStatResp>(
      rpc_.Call(0, proto::SchedStatReq{}, DataPolicy()));
  if (!resp.ok()) return resp.status();
  return std::move(resp->counters);
}

Result<std::vector<proto::PsEntry>> TaskClient::ClusterPs() {
  std::vector<proto::PsEntry> all;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    auto resp =
        Expect<proto::PsResp>(rpc_.Call(n, proto::PsReq{}, DataPolicy()));
    if (!resp.ok()) return resp.status();
    all.insert(all.end(), resp->entries.begin(), resp->entries.end());
  }
  return all;
}

Result<std::vector<MetricsSnapshot>> TaskClient::ClusterStats() {
  std::vector<MetricsSnapshot> per_node;
  per_node.reserve(static_cast<size_t>(num_nodes()));
  for (NodeId n = 0; n < num_nodes(); ++n) {
    auto resp = Expect<proto::StatsResp>(
        rpc_.Call(n, proto::StatsReq{}, DataPolicy()));
    if (!resp.ok()) return resp.status();
    per_node.push_back(std::move(resp->counters));
  }
  return per_node;
}

}  // namespace dse
