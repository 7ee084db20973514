// Datagram multiplexer: one UDP socket carrying all of a process's
// protocol traffic, driven by an EpollLoop.
//
// One socket per PROCESS (a brickd hosts one brick; a client hosts none),
// readable-event decoding inline on the loop thread, and real remote
// addresses. The wire format is a [u32 from][u32 to] routing envelope
// followed by either a singleton message encoding (core/wire.h) or a batch
// frame (core/frame.h).
//
// Addressing is hybrid:
//   - static peers (set_peer / set_peers): the cluster layout from the
//     config file — how a client finds the bricks;
//   - learned peers: every received datagram's source address is recorded
//     for its envelope `from` id — how a brick answers clients it has never
//     heard of (clients bind ephemeral ports and announce nobody).
// A static entry is authoritative for bricks; learned entries fill the
// gaps and track a restarted peer's latest address.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "common/types.h"
#include "core/messages.h"
#include "runtime/epoll_loop.h"

namespace fabec::runtime {

/// An IPv4 endpoint in config-file form. No DNS: addresses are dotted
/// quads, which keeps the daemon dependency-free and startup deterministic.
struct Endpoint {
  std::string addr = "127.0.0.1";
  std::uint16_t port = 0;

  bool operator==(const Endpoint&) const = default;
};

struct DatagramMuxStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t frames_sent = 0;   ///< multi-message datagrams
  std::uint64_t rejected = 0;      ///< undecodable / misaddressed
  std::uint64_t send_failures = 0; ///< unknown peer or sendto failure
};

class DatagramMux {
 public:
  /// from, decoded messages — runs on the loop thread. A singleton
  /// datagram delivers a 1-element vector; a frame delivers every message
  /// it carried, in frame order.
  using Handler = std::function<void(ProcessId, std::vector<core::Message>)>;

  /// Binds one UDP socket on `listen` (port 0 = ephemeral) for process
  /// `self` and registers it with `loop`. The loop must outlive the mux.
  /// Only a fixed-port bind sets SO_REUSEADDR (a restarted brick
  /// re-binding its port); an ephemeral bind never shares a port.
  DatagramMux(EpollLoop* loop, ProcessId self, const Endpoint& listen,
              Handler handler);
  ~DatagramMux();

  DatagramMux(const DatagramMux&) = delete;
  DatagramMux& operator=(const DatagramMux&) = delete;

  ProcessId self() const { return self_; }
  /// The actually bound port (resolves an ephemeral bind).
  std::uint16_t local_port() const;

  /// Installs/overwrites one static peer address. nullopt endpoint form is
  /// not accepted — remove a peer by never sending to it.
  void set_peer(ProcessId peer, const Endpoint& ep);
  void set_peers(const std::map<ProcessId, Endpoint>& peers);

  /// Sends one message (singleton datagram) from `self` to `to`. Returns
  /// false if the peer is unknown or the send failed — both count as
  /// message loss, which retransmission masks. Loop thread only.
  bool send(ProcessId to, const core::Message& msg);

  /// Sends a batch as frame datagrams, greedily split to fit. Loop thread
  /// only.
  bool send_frame(ProcessId to, const std::vector<core::Message>& msgs);

  const DatagramMuxStats& stats() const { return stats_; }

 private:
  void on_readable();
  bool send_datagram(ProcessId to, const Bytes& datagram);
  const sockaddr_in* address_of(ProcessId peer) const;

  EpollLoop* loop_;
  ProcessId self_;
  int fd_ = -1;
  Handler handler_;
  std::map<ProcessId, sockaddr_in> static_peers_;
  std::map<ProcessId, sockaddr_in> learned_peers_;
  DatagramMuxStats stats_;
  Bytes recv_buffer_;
  BufferPool send_buffers_;
};

/// Parses "a.b.c.d:port" (the config-file peer syntax).
std::optional<Endpoint> parse_endpoint(const std::string& text);

}  // namespace fabec::runtime
