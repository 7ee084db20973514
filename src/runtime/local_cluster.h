// LocalCluster: a brick pool hosted in this process — N BrickServers on
// loopback, each on its own EpollLoop thread, with stores under one
// directory. The same daemons `brickd` runs, minus fork/exec: tests,
// examples/realtime_cluster and `tools/cluster --inproc` boot it and talk
// to it through fab::VolumeClient, exactly as they would to processes.
//
// A brick's first boot takes an ephemeral port; restart() re-binds that
// port and replays the same store, so clients' peer maps survive a kill.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "runtime/brick_config.h"
#include "runtime/brick_server.h"
#include "runtime/datagram_mux.h"

namespace fabec::runtime {

class LocalCluster {
 public:
  /// `base` is every brick's config except brick_id, listen and
  /// store_path; brick i of base.total_bricks stores under `dir`/brick<i>.
  LocalCluster(BrickConfig base, std::string dir);

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Boots every brick; false + error if one fails.
  bool boot(std::string* error);
  /// Stops brick `id` and drops its volatile state (socket, reply cache,
  /// in-memory store) — a kill. Its store directory stays.
  void stop(ProcessId id);
  /// Boots brick `id` again on its port, recovering from its store.
  bool restart(ProcessId id, std::string* error);

  std::uint32_t size() const { return base_.total_bricks; }
  /// Null while the brick is stopped.
  BrickServer* brick(ProcessId id) { return servers_[id].get(); }
  /// Brick id -> loopback address, for VolumeClientConfig::bricks.
  std::map<ProcessId, Endpoint> endpoints() const;

 private:
  BrickConfig base_;
  std::string dir_;
  std::vector<std::unique_ptr<BrickServer>> servers_;
  std::vector<std::uint16_t> ports_;  ///< 0 until first boot
};

}  // namespace fabec::runtime
