#include "net/tcp_fabric.h"

#include <atomic>
#include <memory>

#include <chrono>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/log.h"
#include "common/queue.h"
#include "net/framing.h"
#include "osal/socket.h"

namespace dse::net {

class TcpFabricEndpoint::Impl {
 public:
  Impl(TcpFabricEndpoint* owner, NodeId self, std::vector<TcpNodeAddr> nodes)
      : owner_(owner), self_(self), nodes_(std::move(nodes)) {
    peers_.reserve(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      peers_.push_back(std::make_unique<Peer>());
    }
  }

  ~Impl() { ShutdownInternal(); }

  Status Rendezvous(int timeout_ms) {
    const int n = static_cast<int>(nodes_.size());
    auto listener = osal::TcpListener::Listen(
        nodes_[static_cast<size_t>(self_)].port);
    if (!listener.ok()) return listener.status();

    // Initiate to lower-numbered peers (with retry — they may still be
    // binding their listeners).
    for (NodeId j = 0; j < self_; ++j) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms);
      for (;;) {
        auto sock = osal::TcpSocket::Connect(nodes_[static_cast<size_t>(j)].host,
                                             nodes_[static_cast<size_t>(j)].port);
        if (sock.ok()) {
          DSE_RETURN_IF_ERROR(sock->SetNoDelay(true));
          // Hello frame identifies us to the acceptor.
          const auto hello = EncodeFrame(self_, {});
          DSE_RETURN_IF_ERROR(sock->SendAll(hello.data(), hello.size()));
          AttachPeer(j, std::move(*sock));
          break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          return Unavailable("rendezvous with node " + std::to_string(j) +
                             " timed out: " + sock.status().ToString());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }

    // Accept from higher-numbered peers.
    for (NodeId count = self_ + 1; count < n; ++count) {
      auto sock = listener->Accept();
      if (!sock.ok()) return sock.status();
      DSE_RETURN_IF_ERROR(sock->SetNoDelay(true));

      // Read the hello frame to learn who connected.
      FrameDecoder dec;
      std::optional<Delivery> hello;
      while (!hello.has_value()) {
        std::uint8_t buf[512];
        auto got = sock->RecvSome(buf, sizeof(buf));
        if (!got.ok()) return got.status();
        if (*got == 0) return ProtocolError("peer closed during hello");
        DSE_RETURN_IF_ERROR(dec.Feed(buf, *got));
        hello = dec.Next();
      }
      const NodeId peer = hello->src;
      if (peer <= self_ || peer >= n) {
        return ProtocolError("unexpected hello from node " +
                             std::to_string(peer));
      }
      // The peer may have pipelined payload frames right behind the hello;
      // hand the decoder (buffered bytes and any ready frames) to the
      // reader thread so nothing is lost.
      AttachPeer(peer, std::move(*sock), std::move(dec));
    }
    return Status::Ok();
  }

  NodeId self() const { return self_; }
  int world_size() const { return static_cast<int>(nodes_.size()); }

  Status Send(NodeId dst, std::vector<std::uint8_t> payload) {
    if (dst < 0 || dst >= world_size()) {
      return InvalidArgument("send to unknown node " + std::to_string(dst));
    }
    if (dst == self_) {
      if (shutting_down_.load(std::memory_order_acquire)) {
        return Unavailable("endpoint shut down");
      }
      Delivery d;
      d.src = self_;
      d.payload = std::move(payload);
      // Loopback: the hook runs on the thread sending to itself.
      if (!owner_->OfferToHook(d) && !inbox_.Push(std::move(d))) {
        return Unavailable("endpoint shut down");
      }
      return Status::Ok();
    }
    Peer& peer = *peers_[static_cast<size_t>(dst)];
    if (!peer.sock.valid()) return Unavailable("no connection to node");
    // A dead connection surfaces on the *read* side first (recv sees the
    // close); sends into a dead socket can keep "succeeding" into the kernel
    // buffer — or block once it fills. The down latch fails them fast.
    if (peer.down.load(std::memory_order_acquire)) {
      return Unavailable("connection to node " + std::to_string(dst) +
                         " is down");
    }
    // Frame into the peer's reusable send buffer (guarded by send_mu along
    // with the socket) so the steady-state path allocates nothing.
    std::lock_guard<std::mutex> lock(peer.send_mu);
    EncodeFrameInto(self_, payload, &peer.send_buf);
    Status s = peer.sock.SendAll(peer.send_buf.data(), peer.send_buf.size());
    if (!s.ok()) {
      peer.down.store(true, std::memory_order_release);
      return Unavailable("connection to node " + std::to_string(dst) +
                         " is down: " + s.ToString());
    }
    return s;
  }

  std::optional<Delivery> Recv() { return inbox_.Pop(); }
  std::optional<Delivery> TryRecv() { return inbox_.TryPop(); }

  void Shutdown() { ShutdownInternal(); }

 private:
  struct Peer {
    osal::TcpSocket sock;
    std::mutex send_mu;
    std::vector<std::uint8_t> send_buf;  // reused frame scratch (under send_mu)
    std::thread reader;
    FrameDecoder dec;  // owned by the reader thread once it starts
    // Latched when the connection dies (reader saw a close/error outside
    // shutdown, or a send failed); Send fails fast from then on.
    std::atomic<bool> down{false};
  };

  void AttachPeer(NodeId id, osal::TcpSocket sock, FrameDecoder dec = {}) {
    Peer& peer = *peers_[static_cast<size_t>(id)];
    peer.sock = std::move(sock);
    peer.dec = std::move(dec);
    peer.reader = std::thread([this, id] { ReaderLoop(id); });
  }

  void ReaderLoop(NodeId id) {
    Peer& peer = *peers_[static_cast<size_t>(id)];
    FrameDecoder& dec = peer.dec;
    // Frames pipelined behind the rendezvous hello are already decoded.
    // The receive hook runs on this reader thread, in the peer's send order.
    while (auto d = dec.Next()) {
      if (!owner_->OfferToHook(*d) && !inbox_.Push(std::move(*d))) return;
    }
    std::vector<std::uint8_t> buf(64 * 1024);
    for (;;) {
      auto got = peer.sock.RecvSome(buf.data(), buf.size());
      if (!got.ok() || *got == 0) break;  // closed or failed: reader exits
      if (!dec.Feed(buf.data(), *got).ok()) {
        DSE_LOG(kWarn) << "node " << self_ << ": protocol error from peer "
                       << id << "; dropping connection";
        break;
      }
      while (auto d = dec.Next()) {
        if (!owner_->OfferToHook(*d) && !inbox_.Push(std::move(*d))) {
          return;  // shutting down
        }
      }
    }
    // The recv side saw a close, error or garbage outside of an orderly
    // local shutdown: the peer is gone. Latch so senders stop queueing
    // into a connection nothing reads.
    if (!shutting_down_.load(std::memory_order_acquire)) {
      peer.down.store(true, std::memory_order_release);
    }
  }

  void ShutdownInternal() {
    shutting_down_.store(true, std::memory_order_release);
    inbox_.Close();
    for (auto& p : peers_) {
      p->sock.ShutdownBoth();  // unblocks the reader's recv
    }
    for (auto& p : peers_) {
      if (p->reader.joinable()) p->reader.join();
    }
    for (auto& p : peers_) {
      p->sock.Close();
    }
  }

  TcpFabricEndpoint* owner_;  // runs the receive hook and counts its frames
  NodeId self_;
  std::vector<TcpNodeAddr> nodes_;
  std::vector<std::unique_ptr<Peer>> peers_;
  BlockingQueue<Delivery> inbox_;
  std::atomic<bool> shutting_down_{false};
};

TcpFabricEndpoint::TcpFabricEndpoint(NodeId self,
                                     std::vector<TcpNodeAddr> nodes)
    : impl_(std::make_unique<Impl>(this, self, std::move(nodes))) {}

TcpFabricEndpoint::~TcpFabricEndpoint() = default;

Result<std::unique_ptr<TcpFabricEndpoint>> TcpFabricEndpoint::Create(
    NodeId self, std::vector<TcpNodeAddr> nodes, int connect_timeout_ms) {
  if (self < 0 || static_cast<size_t>(self) >= nodes.size()) {
    return InvalidArgument("self id out of range");
  }
  std::unique_ptr<TcpFabricEndpoint> endpoint(
      new TcpFabricEndpoint(self, std::move(nodes)));
  DSE_RETURN_IF_ERROR(endpoint->impl_->Rendezvous(connect_timeout_ms));
  return endpoint;
}

NodeId TcpFabricEndpoint::self() const { return impl_->self(); }
int TcpFabricEndpoint::world_size() const { return impl_->world_size(); }
Status TcpFabricEndpoint::Send(NodeId dst, std::vector<std::uint8_t> payload) {
  const std::uint64_t bytes = payload.size();
  Status s = impl_->Send(dst, std::move(payload));
  if (s.ok()) NoteSend(bytes);
  return s;
}
std::optional<Delivery> TcpFabricEndpoint::Recv() {
  std::optional<Delivery> d = impl_->Recv();
  if (d) NoteRecv(d->payload.size());
  return d;
}
std::optional<Delivery> TcpFabricEndpoint::TryRecv() {
  std::optional<Delivery> d = impl_->TryRecv();
  if (d) NoteRecv(d->payload.size());
  return d;
}
void TcpFabricEndpoint::Shutdown() { impl_->Shutdown(); }

}  // namespace dse::net
