#include "net/inproc.h"

#include <atomic>

#include "common/check.h"

namespace dse::net {

class InProcFabric::NodeEndpoint final : public Endpoint {
 public:
  NodeEndpoint(InProcFabric* fabric, NodeId id)
      : fabric_(fabric), id_(id) {}

  NodeId self() const override { return id_; }
  int world_size() const override { return fabric_->size(); }

  Status Send(NodeId dst, std::vector<std::uint8_t> payload) override {
    if (dst < 0 || dst >= fabric_->size()) {
      return InvalidArgument("send to unknown node " + std::to_string(dst));
    }
    NodeEndpoint& to = *fabric_->endpoints_[static_cast<size_t>(dst)];
    if (to.closed_.load(std::memory_order_acquire)) {
      return Unavailable("destination endpoint shut down");
    }
    const std::uint64_t bytes = payload.size();
    Delivery d;
    d.src = id_;
    d.payload = std::move(payload);
    // The destination's hook runs here, on the sending thread.
    if (!to.OfferToHook(d) && !to.inbox_.Push(std::move(d))) {
      return Unavailable("destination endpoint shut down");
    }
    NoteSend(bytes);
    return Status::Ok();
  }

  std::optional<Delivery> Recv() override {
    std::optional<Delivery> d = inbox_.Pop();
    if (d) NoteRecv(d->payload.size());
    return d;
  }
  std::optional<Delivery> TryRecv() override {
    std::optional<Delivery> d = inbox_.TryPop();
    if (d) NoteRecv(d->payload.size());
    return d;
  }
  void Shutdown() override {
    closed_.store(true, std::memory_order_release);
    inbox_.Close();
  }

 private:
  friend class InProcFabric;
  InProcFabric* fabric_;
  NodeId id_;
  BlockingQueue<Delivery> inbox_;
  // Set by Shutdown: no new frame reaches the hook or the inbox.
  std::atomic<bool> closed_{false};
};

InProcFabric::InProcFabric(int num_nodes) {
  DSE_CHECK(num_nodes > 0);
  endpoints_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    endpoints_.push_back(std::make_unique<NodeEndpoint>(this, i));
  }
}

InProcFabric::~InProcFabric() { ShutdownAll(); }

Endpoint& InProcFabric::endpoint(NodeId id) {
  DSE_CHECK(id >= 0 && id < size());
  return *endpoints_[static_cast<size_t>(id)];
}

void InProcFabric::ShutdownAll() {
  for (auto& ep : endpoints_) ep->Shutdown();
}

}  // namespace dse::net
