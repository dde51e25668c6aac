// SimRuntime: the IRuntime adapter over the discrete-event simulation.
//
// Strictly pass-through: every schedule/cancel call forwards to the
// SimWorld calendar queue in the same order the engine used to issue
// them directly, and the returned TimerIds ARE the queue's generation-
// stamped EventIds — so a seed replayed through the seam produces the
// byte-identical event sequence (and BENCH artifacts) it produced before
// the seam existed. Any behavioral divergence here is a bug.
#pragma once

#include <array>
#include <cstdint>

#include "nmad/runtime/runtime.hpp"
#include "simnet/fabric.hpp"
#include "simnet/world.hpp"

namespace nmad::runtime {

class SimRuntime final : public IRuntime {
 public:
  SimRuntime(simnet::SimWorld& world, simnet::SimNode& node)
      : world_(world), node_(node), cpu_(node) {}

  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  [[nodiscard]] double now_us() const override { return world_.now(); }

  TimerId schedule_at(double at_us, TimerFn fn) override {
    return world_.at(at_us, std::move(fn));
  }
  TimerId schedule_after(double delay_us, TimerFn fn) override {
    return world_.after(delay_us, std::move(fn));
  }
  void defer(TimerFn fn) override { world_.after(0.0, std::move(fn)); }
  void cancel(TimerId id) override { world_.cancel(id); }

  [[nodiscard]] uint32_t local_id() const override { return node_.id(); }
  [[nodiscard]] uint32_t incarnation() const override {
    return node_.incarnation();
  }

  [[nodiscard]] ICpuCharge& cpu() override { return cpu_; }

  [[nodiscard]] TimerStats timer_stats() const override {
    return world_.queue_stats();
  }

  bool advance() override { return world_.run_one(); }

  [[nodiscard]] simnet::SimWorld& world() { return world_; }
  [[nodiscard]] simnet::SimNode& node() { return node_; }

 private:
  // Virtual µs per Cost point, in enum order: the engine's software
  // costs as modelled for the paper's 2006 hosts.
  static constexpr std::array<double, kCostCount> kCostUs = {
      0.10,  // kSubmit
      0.03,  // kSubmitChunk
      0.40,  // kElect
      0.20,  // kParsePacket
      0.05,  // kParseChunk
  };

  // Forwards host-cost charges to the node's CpuModel (virtual time).
  class CpuAdapter final : public ICpuCharge {
   public:
    explicit CpuAdapter(simnet::SimNode& node) : node_(node) {}
    void charge(Cost cost) override {
      node_.cpu().charge(kCostUs[static_cast<size_t>(cost)]);
    }
    double charge_memcpy(size_t bytes) override {
      return node_.cpu().charge_memcpy(bytes);
    }

   private:
    simnet::SimNode& node_;
  };

  simnet::SimWorld& world_;
  simnet::SimNode& node_;
  CpuAdapter cpu_;
};

}  // namespace nmad::runtime
