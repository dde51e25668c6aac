// The MPI-subset endpoint interface shared by MAD-MPI and the baseline
// implementations (MPICH-like, OpenMPI-like).
//
// MAD-MPI "is based on the point-to-point nonblocking posting (isend,
// irecv) and completion (wait, test) operations of MPI" (§3.4); the same
// four operations are the interface here so every benchmark runs the
// identical program against each stack.
//
// Because a whole cluster is simulated inside one OS process, programs are
// written split-phase: post the operations on every endpoint first, then
// wait. wait() pumps the shared event loop, which progresses all
// endpoints at once (there is no per-process blocking).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "madmpi/datatype.hpp"
#include "simnet/world.hpp"
#include "util/status.hpp"

namespace nmad::mpi {

// A communicator: rank topology is world-wide (all endpoints); the
// context id isolates tag spaces, exactly like MPI communicators.
struct Comm {
  uint32_t context = 0;

  friend bool operator==(const Comm& a, const Comm& b) {
    return a.context == b.context;
  }
};

inline constexpr Comm kCommWorld{0};

class Request {
 public:
  virtual ~Request() = default;
  [[nodiscard]] virtual bool done() const = 0;
  [[nodiscard]] virtual util::Status status() const = 0;
  // For receive requests: bytes received so far (MPI_Get_count analogue,
  // in bytes). Send requests report 0.
  [[nodiscard]] virtual size_t received_bytes() const { return 0; }
};

// MPI_Status-like result of a probe.
struct ProbeStatus {
  bool matched = false;
  size_t bytes = 0;  // message size, when known (eager or rendezvous RTS)
};

class Endpoint {
 public:
  Endpoint(simnet::SimWorld& world, int rank, int size)
      : world_(world), rank_(rank), size_(size) {}
  virtual ~Endpoint() = default;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }

  // Creates a new communicator context. All endpoints must perform their
  // comm_dup calls in the same order (as in MPI, where it is collective).
  [[nodiscard]] Comm comm_dup(Comm) { return Comm{++next_context_}; }

  // Sequence number for the next collective on `comm`. Collectives must
  // be issued in the same order on every rank (the MPI rule), which makes
  // these counters agree across endpoints and lets collective traffic use
  // disjoint reserved tags.
  [[nodiscard]] uint32_t next_collective_seq(Comm comm) {
    return collective_seq_[comm.context]++;
  }

  // Nonblocking point-to-point. The returned request is owned by the
  // endpoint; release it with free_request() after completion.
  virtual Request* isend(const void* buf, int count, const Datatype& type,
                         int dest, int tag, Comm comm) = 0;
  virtual Request* irecv(void* buf, int count, const Datatype& type,
                         int source, int tag, Comm comm) = 0;
  virtual void free_request(Request* req) = 0;

  // Nonblocking probe: has a message matching (source, tag, comm) already
  // arrived (fully or as a rendezvous announcement)? Never consumes it.
  [[nodiscard]] virtual ProbeStatus iprobe(int source, int tag,
                                           Comm comm) = 0;

  // MPI_Cancel analogue: best-effort withdrawal of a pending request.
  // True when the request was cancelled (its status becomes kCancelled);
  // false when it already completed or its bytes are beyond recall —
  // wait() for it normally in that case. Stacks without cancellation
  // support always refuse.
  virtual bool cancel(Request*) { return false; }
  // Arms a deadline on a pending request: if it is still incomplete after
  // `timeout_us` of virtual time, the stack cancels it with
  // kDeadlineExceeded. Returns false on stacks without deadline support.
  virtual bool set_deadline(Request*, double /*timeout_us*/) {
    return false;
  }

  // MPI_Finalize analogue: flush everything this endpoint still has in
  // flight — pending sends, retransmit windows, deferred acks — within
  // `deadline_us` of virtual time, instead of abandoning it. Returns
  // kDeadlineExceeded when the traffic cannot quiesce in time (e.g. a
  // sent message whose receive was never posted). The endpoint stays
  // usable afterwards; this is a drain, not a teardown. Stacks with no
  // engine-level buffering have nothing to flush and return ok.
  virtual util::Status finalize(double /*deadline_us*/ = 1.0e7) {
    return util::ok_status();
  }

  // Completion.
  [[nodiscard]] static bool test(const Request* req) { return req->done(); }
  void wait(Request* req);
  // Pumps the event loop until `req` completes or `timeout_us` of virtual
  // time elapses. Returns true when the request completed; false on
  // timeout (the request is left pending — pair with cancel() to give up
  // on it, or keep waiting). Quiescence also reports as a timeout: with
  // no events left, virtual time can never reach the deadline.
  bool wait_for(Request* req, double timeout_us);
  void wait_all(std::span<Request* const> reqs);
  // Waits for any one request to complete; returns its index.
  size_t wait_any(std::span<Request* const> reqs);
  // True when every request is complete (MPI_Testall).
  [[nodiscard]] static bool test_all(std::span<Request* const> reqs);

  // MPI_Sendrecv: both transfers in flight at once (safe against the
  // head-to-head exchange deadlock).
  void sendrecv(const void* send_buf, int send_count,
                const Datatype& send_type, int dest, int send_tag,
                void* recv_buf, int recv_count, const Datatype& recv_type,
                int source, int recv_tag, Comm comm);

  // Virtual wall-clock in seconds (MPI_Wtime).
  [[nodiscard]] double wtime() const { return world_.now() * 1e-6; }

  [[nodiscard]] simnet::SimWorld& world() { return world_; }

 protected:
  simnet::SimWorld& world_;
  int rank_;
  int size_;
  uint32_t next_context_ = 0;
  std::map<uint32_t, uint32_t> collective_seq_;
};

}  // namespace nmad::mpi
