// Public counters of the radio, MAC and routing layers, summed over a
// set of mesh nodes, in the per-layer metric vocabulary of the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/network.hpp"
#include "radio/medium.hpp"

namespace perfbench {

struct MeshCounters {
  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t cross_island_tx = 0;
  std::uint64_t cross_island_rx = 0;
  std::uint64_t mac_retries = 0;
  std::uint64_t mac_failed = 0;
  std::uint64_t mac_queue_drops = 0;
  std::uint64_t dao_tx = 0;
  std::uint64_t dio_tx = 0;
  std::uint64_t parent_changes = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t data_delivered = 0;  // data that reached its destination

  void add(const iiot::radio::MediumStats& s) {
    transmissions += s.transmissions;
    collisions += s.collisions;
    cross_island_tx += s.cross_island_tx;
    cross_island_rx += s.cross_island_rx;
  }
  void add(const iiot::core::MeshNode& n) {
    const iiot::mac::MacStats& m = n.mac->stats();
    mac_retries += m.retries;
    mac_failed += m.failed;
    mac_queue_drops += m.queue_drops;
    const iiot::net::RplStats& r = n.routing->stats();
    dao_tx += r.dao_tx;
    dio_tx += r.dio_tx;
    parent_changes += r.parent_changes;
    net_drops += r.drops_no_route + r.drops_link + r.drops_ttl + r.drops_loop;
    data_delivered += r.data_delivered;
  }

  [[nodiscard]] static std::vector<std::string> names() {
    return {"radio.transmissions", "radio.collisions",
            "radio.cross_island_tx", "radio.cross_island_rx",
            "mac.retries", "mac.failed", "mac.queue_drops", "net.dao_tx",
            "net.dio_tx", "net.parent_changes", "net.drops",
            "net.data_delivered"};
  }
  [[nodiscard]] std::vector<std::uint64_t> values() const {
    return {transmissions, collisions, cross_island_tx, cross_island_rx,
            mac_retries, mac_failed, mac_queue_drops, dao_tx, dio_tx,
            parent_changes, net_drops, data_delivered};
  }

};

}  // namespace perfbench
