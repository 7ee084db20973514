#include "runtime/local_cluster.h"

#include <utility>

namespace fabec::runtime {

LocalCluster::LocalCluster(BrickConfig base, std::string dir)
    : base_(std::move(base)), dir_(std::move(dir)) {
  if (base_.total_bricks == 0) base_.total_bricks = base_.n;
  servers_.resize(base_.total_bricks);
  ports_.resize(base_.total_bricks, 0);
}

bool LocalCluster::boot(std::string* error) {
  for (ProcessId id = 0; id < size(); ++id)
    if (!restart(id, error)) return false;
  return true;
}

void LocalCluster::stop(ProcessId id) { servers_[id].reset(); }

bool LocalCluster::restart(ProcessId id, std::string* error) {
  BrickConfig config = base_;
  config.brick_id = id;
  config.listen = {"127.0.0.1", ports_[id]};
  config.store_path = dir_ + "/brick" + std::to_string(id);
  servers_[id] = std::make_unique<BrickServer>(std::move(config), id + 1);
  if (!servers_[id]->init(error)) {
    servers_[id].reset();
    return false;
  }
  ports_[id] = servers_[id]->port();
  servers_[id]->start();
  return true;
}

std::map<ProcessId, Endpoint> LocalCluster::endpoints() const {
  std::map<ProcessId, Endpoint> out;
  for (ProcessId id = 0; id < size(); ++id)
    out[id] = {"127.0.0.1", ports_[id]};
  return out;
}

}  // namespace fabec::runtime
