#include "nmad/api/wall_session.hpp"

#include <chrono>
#include <thread>

#include "util/assert.hpp"

namespace nmad::api {

WallCluster::WallCluster(Options options)
    : wait_timeout_us_(options.wait_timeout_us) {
  NMAD_ASSERT_MSG(options.nodes >= 2, "cluster needs at least two nodes");
  hub_ = std::make_unique<drivers::ShmHub>(options.nodes);

  for (size_t n = 0; n < options.nodes; ++n) {
    runtime::WallClockRuntime::Options rt_options;
    rt_options.local_id = static_cast<uint32_t>(n);
    runtimes_.push_back(
        std::make_unique<runtime::WallClockRuntime>(rt_options));
    auto core =
        std::make_unique<core::Core>(*runtimes_.back(), options.core);
    auto driver = std::make_unique<drivers::ShmDriver>(
        *hub_, static_cast<drivers::PeerAddr>(n), *runtimes_.back());
    const util::Status st = core->add_rail(std::move(driver));
    NMAD_ASSERT_MSG(st.is_ok(), "shm rail setup failed");
    cores_.push_back(std::move(core));
  }

  for (size_t from = 0; from < options.nodes; ++from) {
    runtime::ExecGuard guard(*runtimes_[from]);
    for (size_t to = 0; to < options.nodes; ++to) {
      if (from == to) continue;
      auto gate = cores_[from]->connect(static_cast<drivers::PeerAddr>(to));
      NMAD_ASSERT_MSG(gate.has_value(), "gate open failed");
    }
  }
}

WallCluster::~WallCluster() {
  // Engines first (their dtors cancel timers into the runtimes and shut
  // the drivers' pump threads down), runtimes and hub after.
  cores_.clear();
  runtimes_.clear();
}

core::GateId WallCluster::gate(size_t from, size_t to) const {
  NMAD_ASSERT(from < cores_.size() && to < cores_.size() && from != to);
  return cores_[from]->gate_to(static_cast<drivers::PeerAddr>(to));
}

core::Request* WallCluster::post_send(size_t node, core::GateId gate,
                                      core::Tag tag,
                                      util::ConstBytes bytes) {
  return locked(node, [&](core::Core& core) -> core::Request* {
    return core.isend(gate, tag, bytes);
  });
}

core::Request* WallCluster::post_recv(size_t node, core::GateId gate,
                                      core::Tag tag,
                                      util::MutableBytes bytes) {
  return locked(node, [&](core::Core& core) -> core::Request* {
    return core.irecv(gate, tag, bytes);
  });
}

void WallCluster::wait(size_t node, core::Request* req) {
  NMAD_ASSERT(req != nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    {
      runtime::ExecGuard guard(*runtimes_[node]);
      if (req->done()) return;
    }
    const double waited_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    NMAD_ASSERT_MSG(waited_us < wait_timeout_us_,
                    "wall-clock request made no progress (protocol wedge)");
    std::this_thread::sleep_for(std::chrono::microseconds(5));
  }
}

void WallCluster::release(size_t node, core::Request* req) {
  locked(node, [&](core::Core& core) { core.release(req); });
}

}  // namespace nmad::api
