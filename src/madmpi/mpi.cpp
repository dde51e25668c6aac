#include "madmpi/mpi.hpp"

#include "util/assert.hpp"

namespace nmad::mpi {

void Endpoint::wait(Request* req) {
  NMAD_ASSERT(req != nullptr);
  const bool ok = world_.run_until([req]() { return req->done(); });
  NMAD_ASSERT_MSG(ok,
                  "simulation quiescent with a pending MPI request "
                  "(missing matching operation?)");
}

bool Endpoint::wait_for(Request* req, double timeout_us) {
  NMAD_ASSERT(req != nullptr);
  const double deadline = world_.now() + timeout_us;
  while (!req->done()) {
    if (world_.now() >= deadline) return false;
    if (!world_.run_one()) return false;
  }
  return true;
}

void Endpoint::wait_all(std::span<Request* const> reqs) {
  for (Request* req : reqs) wait(req);
}

size_t Endpoint::wait_any(std::span<Request* const> reqs) {
  NMAD_ASSERT(!reqs.empty());
  size_t winner = reqs.size();
  const bool ok = world_.run_until([&]() {
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i]->done()) {
        winner = i;
        return true;
      }
    }
    return false;
  });
  NMAD_ASSERT_MSG(ok, "simulation quiescent with no request completing");
  return winner;
}

bool Endpoint::test_all(std::span<Request* const> reqs) {
  for (const Request* req : reqs) {
    if (!req->done()) return false;
  }
  return true;
}

void Endpoint::sendrecv(const void* send_buf, int send_count,
                        const Datatype& send_type, int dest, int send_tag,
                        void* recv_buf, int recv_count,
                        const Datatype& recv_type, int source, int recv_tag,
                        Comm comm) {
  Request* r = irecv(recv_buf, recv_count, recv_type, source, recv_tag,
                     comm);
  Request* s = isend(send_buf, send_count, send_type, dest, send_tag, comm);
  wait(r);
  wait(s);
  free_request(r);
  free_request(s);
}

}  // namespace nmad::mpi
