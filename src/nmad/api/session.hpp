// Session helpers: build a simulated cluster with one engine per node.
//
// Cluster is the entry point used by examples, tests and benchmarks: it
// owns the virtual world, the fabric, and one Core per node, opens gates
// between every node pair, and provides MPI-style wait helpers that pump
// the event loop.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nmad/core/core.hpp"
#include "nmad/runtime/sim_runtime.hpp"
#include "simnet/fabric.hpp"
#include "simnet/profiles.hpp"
#include "simnet/world.hpp"

namespace nmad::api {

struct ClusterOptions {
  size_t nodes = 2;
  // One entry per rail; defaults to a single MX/Myri-10G rail.
  std::vector<simnet::NicProfile> rails;
  simnet::CpuProfile cpu = simnet::opteron_2006_profile();
  core::CoreConfig core;
  // Progress watchdog for wait(): when a request is still pending after
  // this much virtual time, print a stall report (request identity plus
  // every engine's debug dump) and keep going; after `stall_report_limit`
  // reports the wait aborts — a live-locked protocol is as much a bug as
  // a quiescent one, but the trail of reports shows what it was doing.
  // 0 disables the watchdog (wait only aborts on quiescence).
  double stall_report_interval_us = 1e6;
  int stall_report_limit = 16;
  // Open a gate between every node pair at construction (the historical
  // behaviour, right for small clusters). At 1k+ ranks the N² gates and
  // their windows dominate memory and setup time, while real communication
  // patterns (alltoall exchanges, incast) touch O(N·log N) pairs — set
  // false and open pairs on demand with ensure_gate().
  bool full_mesh = true;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] simnet::SimWorld& world() { return world_; }
  [[nodiscard]] simnet::Fabric& fabric() { return fabric_; }
  [[nodiscard]] size_t node_count() const { return cores_.size(); }
  [[nodiscard]] core::Core& core(simnet::NodeId node) {
    NMAD_ASSERT(node < cores_.size());
    return *cores_[node];
  }
  // The engines in node order (node n at index n).
  [[nodiscard]] std::vector<core::Core*> cores() const;

  // Gate on `from` leading to `to`.
  [[nodiscard]] core::GateId gate(simnet::NodeId from,
                                  simnet::NodeId to) const;

  // Lazy-mesh mode: opens the from→to gate (and its to→from return path —
  // receiving a packet from an unconnected peer is a protocol error) if
  // not yet open. Idempotent; no-op for pairs the full mesh already wired.
  void ensure_gate(simnet::NodeId from, simnet::NodeId to);

  // Virtual time now, µs.
  [[nodiscard]] double now() const { return world_.now(); }

  // Pumps the event loop until the request completes. Aborts if the
  // simulation goes quiescent first (protocol deadlock — always a bug).
  void wait(core::Request* req);
  void wait_all(std::span<core::Request* const> reqs);

 private:
  void stall_report(const core::Request* req, int n) const;

  simnet::SimWorld world_;
  simnet::Fabric fabric_;
  // One pass-through runtime per node: each Core sees only the
  // runtime::IRuntime seam, never the SimWorld/SimNode underneath.
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<core::Core>> cores_;
  double stall_report_interval_us_;
  int stall_report_limit_;
};

}  // namespace nmad::api
