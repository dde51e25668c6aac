// The nmad transfer-layer driver interface (paper §3.3/§4).
//
// "The implementation of each corresponding transfer layer consists in a
// minimal network API (initialisation, closing, sending, receiving and
// polling methods) ... In addition, some information are collected such as
// the threshold for the rendez-vous protocol or the availability of the
// gather/scatter or as well the remote direct access (RDMA) functionality."
//
// One Driver instance is one local NIC endpoint; it can reach every peer
// on its rail. Drivers are strictly mechanism: they move fully-built
// packets and bulk bodies, and report when the NIC is idle so the
// scheduler above can elect the next optimized packet.
//
// All callbacks are allocation-free InlineFunctions: the per-packet
// handoff across this seam is on the engine's steady-state hot path, and
// the zero-alloc guarantee (test_alloc_churn) extends through it.
#pragma once

#include <cstdint>
#include <string>

#include "nmad/drivers/bulk_sink.hpp"
#include "util/buffer.hpp"
#include "util/inline_fn.hpp"
#include "util/status.hpp"

namespace nmad::drivers {

// Peer address on a rail. In the simulated fabric this is the node id;
// the shm driver uses the rank within its hub; a production driver would
// hold whatever its network names peers with.
using PeerAddr = uint32_t;

struct DriverCaps {
  std::string name;
  bool supports_gather = false;
  uint32_t max_gather_segments = 1;
  bool supports_rdma = false;
  size_t rdv_threshold = 32 * 1024;   // recommended eager/rdv switch
  size_t max_packet_bytes = 32 * 1024;  // largest track-0 packet
  double latency_us = 0.0;      // nominal, for strategy decisions
  double bandwidth_mbps = 0.0;  // nominal, for strategy decisions
};

// A fully-received track-0 packet surfaced to the engine.
struct RxPacket {
  PeerAddr from = 0;
  util::ByteBuffer bytes;
};

class Driver {
 public:
  // Capacities: the scheduler's tx-done closures measure ≤ 32 bytes, the
  // engine's rx/orphan handlers capture only `this` — anything larger
  // spills to the heap and trips the allocation-regression tests.
  using CompletionFn = util::InlineFunction<48>;
  using RxHandler = util::InlineFunction<32, void(RxPacket&&)>;
  // (from, cookie, offset, len): a bulk slice addressed to a sink that is
  // no longer posted — a late retransmission under the reliability layer.
  using BulkOrphanHandler =
      util::InlineFunction<32, void(PeerAddr, uint64_t, size_t, size_t)>;
  // (from): any track-1 arrival on this rail, sink hit or orphan. Bulk
  // deposits never reach the rx handler, so the health monitor needs this
  // hook to count a saturated bulk stream as liveness evidence.
  using BulkRxHandler = util::InlineFunction<32, void(PeerAddr)>;

  virtual ~Driver() = default;

  [[nodiscard]] virtual const DriverCaps& caps() const = 0;

  [[nodiscard]] virtual util::Status init() = 0;
  virtual void shutdown() = 0;

  // True when a new send could be issued right now. The engine only packs
  // a new packet when the NIC is idle — this is the just-in-time election
  // point of §3.1.
  [[nodiscard]] virtual bool tx_idle() const = 0;

  // Sends one track-0 packet built by the scheduler. `segments` is a
  // gather list (header buffer interleaved with payload views); drivers
  // without gather support copy through a bounce buffer at modelled host
  // cost. `on_tx_done` fires when the NIC is free again.
  virtual util::Status send_packet(PeerAddr to,
                                   const util::SegmentVec& segments,
                                   CompletionFn on_tx_done) = 0;

  // Sends part of a rendezvous body into the sink the receiver posted
  // under `cookie`, at `offset` within that sink.
  virtual util::Status send_bulk(PeerAddr to, uint64_t cookie, size_t offset,
                                 const util::SegmentVec& segments,
                                 CompletionFn on_tx_done) = 0;

  // Posts a bulk receive window. The sink is owned by the engine and may
  // be posted on several rails at once (multi-rail reassembly into one
  // destination region); the engine cancels it on every rail once the
  // sink completes. Drivers wrap their own memory-registration handle
  // around it internally.
  virtual util::Status post_bulk_recv(BulkSink* sink) = 0;
  virtual void cancel_bulk_recv(uint64_t cookie) = 0;

  // Registers the engine's packet-arrival callback.
  virtual void set_rx_handler(RxHandler handler) = 0;

  // Optional: without a handler, orphan bulk arrivals stay a hard
  // protocol error (lossless operation). Drivers that cannot observe
  // orphans may ignore this.
  virtual void set_bulk_orphan_handler(BulkOrphanHandler handler) {
    (void)handler;
  }

  // Optional: drivers that cannot observe deposits may ignore it.
  virtual void set_bulk_rx_handler(BulkRxHandler handler) {
    (void)handler;
  }
};

}  // namespace nmad::drivers
