// Wall-clock session helper: the same engine Core, real time, real
// threads — no simulation anywhere in the stack.
//
// WallCluster is the wall-clock twin of Cluster: it owns one
// WallClockRuntime and one Core per endpoint, wires them over a shared
// ShmHub rail, and opens gates between every pair. Because the shm pump
// threads and each runtime's timer thread enter the engine concurrently
// with the application, every engine call must hold that endpoint's exec
// lock — the locked() helper and the post/wait wrappers below do exactly
// that, so callers never touch a Core bare.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nmad/core/core.hpp"
#include "nmad/drivers/shm_driver.hpp"
#include "nmad/runtime/wallclock_runtime.hpp"

namespace nmad::api {

class WallCluster {
 public:
  struct Options {
    size_t nodes = 2;
    core::CoreConfig core;
    // wait() aborts after this much real time without completion: a
    // wedged wall-clock protocol hangs forever otherwise.
    double wait_timeout_us = 30e6;
  };

  explicit WallCluster(Options options);
  ~WallCluster();

  WallCluster(const WallCluster&) = delete;
  WallCluster& operator=(const WallCluster&) = delete;

  [[nodiscard]] size_t node_count() const { return cores_.size(); }
  // Lock-free: only connect() writes the engine's peer→gate index, and
  // only while the constructor builds the cluster.
  [[nodiscard]] core::GateId gate(size_t from, size_t to) const;
  [[nodiscard]] runtime::WallClockRuntime& rt(size_t node) {
    return *runtimes_[node];
  }

  // Runs `fn(core)` under the endpoint's exec lock.
  template <typename Fn>
  auto locked(size_t node, Fn&& fn) {
    runtime::ExecGuard guard(*runtimes_[node]);
    return fn(*cores_[node]);
  }

  core::Request* post_send(size_t node, core::GateId gate, core::Tag tag,
                           util::ConstBytes bytes);
  core::Request* post_recv(size_t node, core::GateId gate, core::Tag tag,
                           util::MutableBytes bytes);
  // Blocks (sleep-polling under the lock) until the request completes.
  void wait(size_t node, core::Request* req);
  void release(size_t node, core::Request* req);

 private:
  double wait_timeout_us_;
  std::unique_ptr<drivers::ShmHub> hub_;
  std::vector<std::unique_ptr<runtime::WallClockRuntime>> runtimes_;
  std::vector<std::unique_ptr<core::Core>> cores_;
};

}  // namespace nmad::api
