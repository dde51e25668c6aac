#include "nmad/api/session.hpp"

#include <cstdio>
#include <utility>

#include "nmad/drivers/sim_driver.hpp"

namespace nmad::api {

Cluster::Cluster(ClusterOptions options)
    : fabric_(world_),
      stall_report_interval_us_(options.stall_report_interval_us),
      stall_report_limit_(options.stall_report_limit) {
  if (options.rails.empty()) {
    options.rails.push_back(simnet::mx_myri10g_profile());
  }
  NMAD_ASSERT_MSG(options.nodes >= 2, "cluster needs at least two nodes");

  for (size_t n = 0; n < options.nodes; ++n) {
    fabric_.add_node(options.cpu);
  }
  for (const simnet::NicProfile& profile : options.rails) {
    fabric_.add_rail(profile);
  }

  for (size_t n = 0; n < options.nodes; ++n) {
    simnet::SimNode& node = fabric_.node(static_cast<simnet::NodeId>(n));
    runtimes_.push_back(std::make_unique<runtime::SimRuntime>(world_, node));
    auto core =
        std::make_unique<core::Core>(*runtimes_.back(), options.core);
    for (size_t r = 0; r < options.rails.size(); ++r) {
      auto driver = std::make_unique<drivers::SimDriver>(
          world_, node, node.nic(static_cast<simnet::RailIndex>(r)));
      const util::Status st = core->add_rail(std::move(driver));
      NMAD_ASSERT_MSG(st.is_ok(), "rail setup failed");
    }
    cores_.push_back(std::move(core));
  }

  if (options.full_mesh) {
    for (size_t from = 0; from < options.nodes; ++from) {
      for (size_t to = 0; to < options.nodes; ++to) {
        if (from == to) continue;
        auto gate =
            cores_[from]->connect(static_cast<drivers::PeerAddr>(to));
        NMAD_ASSERT_MSG(gate.has_value(), "gate open failed");
      }
    }
  }
}

std::vector<core::Core*> Cluster::cores() const {
  std::vector<core::Core*> out;
  for (const auto& core : cores_) out.push_back(core.get());
  return out;
}

core::GateId Cluster::gate(simnet::NodeId from, simnet::NodeId to) const {
  NMAD_ASSERT(from < cores_.size() && to < cores_.size() && from != to);
  const core::GateId id = cores_[from]->gate_to(to);
  NMAD_ASSERT_MSG(id != core::kNoGate,
                  "gate not open (lazy mesh: call ensure_gate first)");
  return id;
}

void Cluster::ensure_gate(simnet::NodeId from, simnet::NodeId to) {
  NMAD_ASSERT(from < cores_.size() && to < cores_.size() && from != to);
  // Both directions: a one-way opening would leave the peer unable to
  // route the return traffic (acks, credits, CTS) this gate generates.
  for (const auto& [a, b] : {std::pair{from, to}, std::pair{to, from}}) {
    if (cores_[a]->gate_to(b) != core::kNoGate) continue;
    auto gate = cores_[a]->connect(static_cast<drivers::PeerAddr>(b));
    NMAD_ASSERT_MSG(gate.has_value(), "gate open failed");
  }
}

void Cluster::stall_report(const core::Request* req, int n) const {
  std::fprintf(stderr,
               "cluster: %s request (gate %u tag %llu seq %llu) still "
               "pending at t=%.1fus (stall report %d/%d)\n",
               req->kind() == core::Request::Kind::kSend ? "send" : "recv",
               req->gate(), static_cast<unsigned long long>(req->tag()),
               static_cast<unsigned long long>(req->seq()), world_.now(), n,
               stall_report_limit_);
  for (const auto& core : cores_) core->debug_dump(std::cerr);
}

void Cluster::wait(core::Request* req) {
  NMAD_ASSERT(req != nullptr);
  int reports = 0;
  double next_report = stall_report_interval_us_ > 0.0
                           ? world_.now() + stall_report_interval_us_
                           : 0.0;
  while (!req->done()) {
    if (!world_.run_one()) {
      // Protocol deadlock: dump every engine's state before aborting so
      // the failure is diagnosable.
      for (auto& core : cores_) core->debug_dump(std::cerr);
      NMAD_ASSERT_MSG(false,
                      "simulation went quiescent with a pending request");
    }
    if (stall_report_interval_us_ > 0.0 && world_.now() >= next_report &&
        !req->done()) {
      stall_report(req, ++reports);
      NMAD_ASSERT_MSG(reports < stall_report_limit_,
                      "request made no progress; giving up after repeated "
                      "stall reports");
      next_report = world_.now() + stall_report_interval_us_;
    }
  }
}

void Cluster::wait_all(std::span<core::Request* const> reqs) {
  for (core::Request* req : reqs) wait(req);
}

}  // namespace nmad::api
