// Message-exchange abstraction for the real (non-simulated) runtime.
//
// A fabric connects N numbered nodes; each node holds an Endpoint. The DSE
// kernel is written against this interface only — swapping in-process queues
// for TCP (or any future interconnect) never touches kernel code. This is
// the "eliminates dependency on a specific communication protocol" property
// the paper's reorganization targets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dse::net {

using NodeId = int;

// One delivered message.
struct Delivery {
  NodeId src = -1;
  std::vector<std::uint8_t> payload;
};

// Point-in-time transport-level traffic counts for one endpoint. These are
// counted at the fabric boundary (serialized payload bytes), independent of
// the kernel's own per-message-type accounting — the two views cross-check
// each other in tests.
struct WireCounts {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual NodeId self() const = 0;
  virtual int world_size() const = 0;

  // Enqueues `payload` for `dst`. Sending to self is allowed (loopback).
  virtual Status Send(NodeId dst, std::vector<std::uint8_t> payload) = 0;

  // Blocks for the next message; nullopt once the fabric is shut down and
  // the inbound queue is drained.
  virtual std::optional<Delivery> Recv() = 0;

  // Non-blocking variant.
  virtual std::optional<Delivery> TryRecv() = 0;

  // Unblocks all receivers on this endpoint permanently.
  virtual void Shutdown() = 0;

  // Receive hook: each inbound frame is offered to it on the thread that
  // delivers the frame (in-process: the sender's thread; TCP: the peer's
  // reader thread; loopback: the thread sending to itself) before it is
  // queued for Recv. A frame the hook accepts (returns true) is consumed
  // there and never queued. Install once; the hook may run as soon as this
  // returns, and its owner must outlive every thread that can deliver a
  // frame to this endpoint.
  using ReceiveHook = std::function<bool(const Delivery&)>;
  virtual void SetReceiveHook(ReceiveHook hook) {
    hook_ = std::move(hook);
    hook_set_.store(true, std::memory_order_release);
  }

  // A frame to self may skip the transport altogether and be handled in
  // place by the caller: no encode, no queue, no wake-up. An endpoint that
  // shapes traffic (fault injection) draws the frame's verdict here:
  // nullopt is a clean delivery, so the caller handles the frame in place;
  // otherwise the endpoint has carried `encode()`'s bytes as Send would and
  // returns Send's status. Plain transports always answer nullopt.
  using EncodeFn = std::function<std::vector<std::uint8_t>()>;
  virtual std::optional<Status> ShapeLoopback(const EncodeFn& /*encode*/) {
    return std::nullopt;
  }

  WireCounts wire_counts() const {
    WireCounts w;
    w.msgs_sent = msgs_sent_.load(std::memory_order_relaxed);
    w.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    w.msgs_recv = msgs_recv_.load(std::memory_order_relaxed);
    w.bytes_recv = bytes_recv_.load(std::memory_order_relaxed);
    return w;
  }

 protected:
  // Implementations call these on every successful Send/Recv.
  void NoteSend(std::uint64_t bytes) {
    msgs_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void NoteRecv(std::uint64_t bytes) {
    msgs_recv_.fetch_add(1, std::memory_order_relaxed);
    bytes_recv_.fetch_add(bytes, std::memory_order_relaxed);
  }
  // Offers `d` to the receive hook; true (and counted as received) when
  // the hook consumed it.
  bool OfferToHook(const Delivery& d) {
    if (!hook_set_.load(std::memory_order_acquire) || !hook_(d)) return false;
    NoteRecv(d.payload.size());
    return true;
  }

 private:
  ReceiveHook hook_;
  std::atomic<bool> hook_set_{false};
  std::atomic<std::uint64_t> msgs_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> msgs_recv_{0};
  std::atomic<std::uint64_t> bytes_recv_{0};
};

}  // namespace dse::net
