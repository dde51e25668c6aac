// MAD-MPI: the paper's proof-of-concept MPI subset over NewMadeleine.
//
// "this implementation ... is based on the point-to-point nonblocking
// posting (isend, irecv) and completion (wait, test) operations of MPI,
// these four operations being directly mapped to the equivalent operations
// of NewMadeleine." (§3.4)
//
// The communicator context is folded into the high bits of the engine tag,
// so one gate carries every communicator — which is precisely why the
// optimizer can aggregate chunks "even if they belong to different logical
// communication flows (i.e. MPI communicators)" (§5.2).
//
// Derived datatypes are (usually) NOT packed: each memory block of the
// type becomes one engine chunk, letting the aggregation strategy combine
// the small blocks with the rendezvous control messages of the large ones
// (§5.3). The exception is types made of *many tiny* blocks (e.g. a
// strided column of single doubles), where per-block headers would dwarf
// the data: those are packed through a bounce buffer, the threshold
// policy of the MPICH-Madeleine datatype study the paper cites as [3].
#pragma once

#include <vector>

#include "madmpi/mpi.hpp"
#include "nmad/api/session.hpp"
#include "nmad/core/core.hpp"

namespace nmad::mpi {

class MadMpiEndpoint final : public Endpoint {
 public:
  // Rank r is the engine's peer r: core.gate_to(r) leads to it.
  MadMpiEndpoint(simnet::SimWorld& world, core::Core& core, int rank,
                 int size);

  Request* isend(const void* buf, int count, const Datatype& type, int dest,
                 int tag, Comm comm) override;
  Request* irecv(void* buf, int count, const Datatype& type, int source,
                 int tag, Comm comm) override;
  ProbeStatus iprobe(int source, int tag, Comm comm) override;
  void free_request(Request* req) override;
  bool cancel(Request* req) override;
  bool set_deadline(Request* req, double timeout_us) override;
  // Drains the engine: Finalize flushes in-flight traffic (retransmit
  // windows, deferred acks, streaming rendezvous bodies) instead of
  // abandoning it mid-protocol.
  util::Status finalize(double deadline_us) override;

  [[nodiscard]] core::Core& engine() { return core_; }

 private:
  class MadRequest;

  [[nodiscard]] static core::Tag fold_tag(Comm comm, int tag) {
    // Context in the high 32 bits, MPI tag in the low 32.
    return (static_cast<core::Tag>(comm.context) << 32) |
           static_cast<uint32_t>(tag);
  }

  core::Core& core_;
};

// Builds a complete MAD-MPI world over a simulated cluster: one engine and
// one endpoint per node. Keeps the Cluster alive for the endpoints.
class MadMpiWorld {
 public:
  explicit MadMpiWorld(api::ClusterOptions options = {});

  [[nodiscard]] Endpoint& ep(int rank) { return *endpoints_[rank]; }
  [[nodiscard]] api::Cluster& cluster() { return cluster_; }
  [[nodiscard]] simnet::SimWorld& world() { return cluster_.world(); }
  [[nodiscard]] int size() const {
    return static_cast<int>(endpoints_.size());
  }

 private:
  api::Cluster cluster_;
  std::vector<std::unique_ptr<MadMpiEndpoint>> endpoints_;
};

}  // namespace nmad::mpi
