// TCP fabric: one endpoint per node process, full mesh over loopback (or any
// IPv4 LAN — the address list decides).
//
// Rendezvous protocol: every node listens on its configured port; for each
// pair (i, j) with i < j, node j initiates the connection and sends an empty
// hello frame carrying its node id, which node i uses to identify the peer.
// Connect attempts retry briefly so nodes may start in any order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/endpoint.h"

namespace dse::net {

struct TcpNodeAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class TcpFabricEndpoint : public Endpoint {
 public:
  // Creates the endpoint for `self` and blocks until the full mesh to all
  // `nodes` is up. `connect_timeout_ms` bounds the whole rendezvous.
  static Result<std::unique_ptr<TcpFabricEndpoint>> Create(
      NodeId self, std::vector<TcpNodeAddr> nodes,
      int connect_timeout_ms = 10000);

  ~TcpFabricEndpoint() override;

  NodeId self() const override;
  int world_size() const override;
  Status Send(NodeId dst, std::vector<std::uint8_t> payload) override;
  std::optional<Delivery> Recv() override;
  std::optional<Delivery> TryRecv() override;
  void Shutdown() override;

 private:
  class Impl;
  TcpFabricEndpoint(NodeId self, std::vector<TcpNodeAddr> nodes);
  std::unique_ptr<Impl> impl_;
};

}  // namespace dse::net
