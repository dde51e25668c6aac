// Split-phase collective operations built on the point-to-point layer.
//
// The paper's MAD-MPI stops at point-to-point; collectives are the first
// step of its stated future work ("port a full featured MPI
// implementation ... on top of NewMadeleine", §7). They are implemented
// here purely over Endpoint::isend/irecv, so the same algorithms run on
// MAD-MPI and on the baseline stacks — and on MAD-MPI their many small
// tree/ring messages become aggregation fodder for the optimizer.
//
// Because one OS process simulates every rank, collectives are
// split-phase: create the op on every rank first, then wait on any/all.
// Multi-stage algorithms (trees, dissemination rounds) advance themselves
// whenever any collective in the same simulated world is waited on.
//
//   auto b0 = ibarrier(stack.ep(0), kCommWorld);
//   auto b1 = ibarrier(stack.ep(1), kCommWorld);
//   b0->wait();  // drives both state machines
//   b1->wait();
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "madmpi/mpi.hpp"

namespace nmad::mpi {

// Element-wise combiner for reductions (MPI_Op). The engine moves bytes,
// not typed elements, so reductions carry their own combine function.
using ReduceFn =
    std::function<void(void* inout, const void* in, int count)>;

// Predefined combiners.
ReduceFn sum_int();
ReduceFn sum_double();

class CollectiveOp {
 public:
  virtual ~CollectiveOp();

  CollectiveOp(const CollectiveOp&) = delete;
  CollectiveOp& operator=(const CollectiveOp&) = delete;

  [[nodiscard]] bool done() const { return done_; }

  // Pumps the event loop (advancing every live collective in this world)
  // until this op completes.
  void wait();

 protected:
  explicit CollectiveOp(Endpoint& ep);

  // Advances the state machine: reap finished requests, post the next
  // stage, set done_ when finished. Must be idempotent per state.
  virtual void advance() = 0;

  // Stage helpers ----------------------------------------------------------
  void post_send(const void* buf, int count, const Datatype& type, int peer,
                 int stage);
  void post_recv(void* buf, int count, const Datatype& type, int peer,
                 int stage);
  [[nodiscard]] bool stage_requests_done() const;
  void reap_stage_requests();

  [[nodiscard]] int collective_tag(int stage) const;

  Endpoint& ep_;
  Comm comm_;
  uint32_t seq_ = 0;
  bool done_ = false;

 private:
  friend void advance_collectives(simnet::SimWorld* world);

  std::vector<Request*> stage_reqs_;
};

// Factories (all ranks must call each in the same order, per MPI rules).
std::unique_ptr<CollectiveOp> ibarrier(Endpoint& ep, Comm comm);
std::unique_ptr<CollectiveOp> ibcast(Endpoint& ep, void* buf, int count,
                                     const Datatype& type, int root,
                                     Comm comm);
std::unique_ptr<CollectiveOp> ireduce(Endpoint& ep, const void* send_buf,
                                      void* recv_buf, int count,
                                      const Datatype& type, ReduceFn op,
                                      int root, Comm comm);
std::unique_ptr<CollectiveOp> iallreduce(Endpoint& ep, const void* send_buf,
                                         void* recv_buf, int count,
                                         const Datatype& type, ReduceFn op,
                                         Comm comm);
std::unique_ptr<CollectiveOp> igather(Endpoint& ep, const void* send_buf,
                                      void* recv_buf, int count,
                                      const Datatype& type, int root,
                                      Comm comm);
std::unique_ptr<CollectiveOp> iscatter(Endpoint& ep, const void* send_buf,
                                       void* recv_buf, int count,
                                       const Datatype& type, int root,
                                       Comm comm);
std::unique_ptr<CollectiveOp> ialltoall(Endpoint& ep, const void* send_buf,
                                        void* recv_buf, int count,
                                        const Datatype& type, Comm comm);

}  // namespace nmad::mpi
