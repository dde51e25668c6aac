#include "madmpi/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "util/assert.hpp"
#include "util/buffer.hpp"

namespace nmad::mpi {
namespace {

// Live collectives per simulated world: waiting on any one op must drive
// every rank's state machine, since all ranks share the event loop.
std::map<simnet::SimWorld*, std::vector<CollectiveOp*>>& registry() {
  static std::map<simnet::SimWorld*, std::vector<CollectiveOp*>> map;
  return map;
}

}  // namespace

void advance_collectives(simnet::SimWorld* world) {
  // One op completing can unblock another (e.g. allreduce's broadcast
  // waits on its reduction) without generating any fabric event, so loop
  // until a full pass completes nothing new.
  bool changed = true;
  while (changed) {
    changed = false;
    auto it = registry().find(world);
    if (it == registry().end()) return;
    // Snapshot: advance() never creates or destroys ops.
    const std::vector<CollectiveOp*> ops = it->second;
    for (CollectiveOp* op : ops) {
      if (op->done_) continue;
      op->advance();
      changed |= op->done_;
    }
  }
}

CollectiveOp::CollectiveOp(Endpoint& ep) : ep_(ep) {
  registry()[&ep.world()].push_back(this);
}

CollectiveOp::~CollectiveOp() {
  NMAD_ASSERT_MSG(stage_reqs_.empty(),
                  "collective destroyed with requests in flight");
  auto& ops = registry()[&ep_.world()];
  ops.erase(std::find(ops.begin(), ops.end(), this));
  if (ops.empty()) registry().erase(&ep_.world());
}

void CollectiveOp::wait() {
  simnet::SimWorld& world = ep_.world();
  advance_collectives(&world);
  const bool ok = world.run_until([&]() {
    advance_collectives(&world);
    return done_;
  });
  NMAD_ASSERT_MSG(ok, "collective deadlock: did every rank call it?");
}

int CollectiveOp::collective_tag(int stage) const {
  // Reserved tag space: bit 30 set, collective sequence, stage.
  return (1 << 30) | (static_cast<int>(seq_ & 0x3FFFu) << 8) |
         (stage & 0xFF);
}

void CollectiveOp::post_send(const void* buf, int count,
                             const Datatype& type, int peer, int stage) {
  stage_reqs_.push_back(
      ep_.isend(buf, count, type, peer, collective_tag(stage), comm_));
}

void CollectiveOp::post_recv(void* buf, int count, const Datatype& type,
                             int peer, int stage) {
  stage_reqs_.push_back(
      ep_.irecv(buf, count, type, peer, collective_tag(stage), comm_));
}

bool CollectiveOp::stage_requests_done() const {
  for (const Request* req : stage_reqs_) {
    if (!req->done()) return false;
  }
  return true;
}

void CollectiveOp::reap_stage_requests() {
  for (Request* req : stage_reqs_) ep_.free_request(req);
  stage_reqs_.clear();
}

// ---------------------------------------------------------------------------
// Barrier: dissemination, ceil(log2 P) rounds of zero-byte exchanges.
// ---------------------------------------------------------------------------
namespace {

class BarrierOp final : public CollectiveOp {
 public:
  BarrierOp(Endpoint& ep, Comm comm) : CollectiveOp(ep) {
    comm_ = comm;
    seq_ = ep.next_collective_seq(comm);
  }

 protected:
  void advance() override {
    const int size = ep_.size();
    while (true) {
      if (round_ >= 0) {
        if (!stage_requests_done()) return;
        reap_stage_requests();
      }
      ++round_;
      if ((1 << round_) >= size) {  // ceil(log2 size) rounds completed
        done_ = true;
        return;
      }
      const int dist = 1 << round_;
      const int to = (ep_.rank() + dist) % size;
      const int from = (ep_.rank() - dist + size) % size;
      post_send(nullptr, 0, Datatype::byte_type(), to, round_);
      post_recv(nullptr, 0, Datatype::byte_type(), from, round_);
    }
  }

 private:
  int round_ = -1;
};

}  // namespace

std::unique_ptr<CollectiveOp> ibarrier(Endpoint& ep, Comm comm) {
  return std::make_unique<BarrierOp>(ep, comm);
}

// ---------------------------------------------------------------------------
// Broadcast: binomial tree rooted at `root`.
// ---------------------------------------------------------------------------
namespace {

class BcastOp final : public CollectiveOp {
 public:
  BcastOp(Endpoint& ep, void* buf, int count, const Datatype& type,
          int root, Comm comm, std::function<bool()> wait_for,
          bool owns_seq)
      : CollectiveOp(ep),
        buf_(buf),
        count_(count),
        type_(type),
        root_(root),
        wait_for_(std::move(wait_for)) {
    comm_ = comm;
    if (owns_seq) seq_ = ep.next_collective_seq(comm);
  }

  void set_seq(uint32_t seq) { seq_ = seq; }

 protected:
  void advance() override {
    const int size = ep_.size();
    const int vrank = (ep_.rank() - root_ + size) % size;
    while (!done_) {
      if (phase_ == Phase::kStart) {
        if (wait_for_ && !wait_for_()) return;
        // Find the parent: clear the lowest set bit of vrank.
        int mask = 1;
        while (mask < size && (vrank & mask) == 0) mask <<= 1;
        parent_mask_ = mask;
        if (vrank != 0) {
          const int vparent = vrank & ~mask;
          post_recv(buf_, count_, type_, (vparent + root_) % size, 0);
          phase_ = Phase::kReceiving;
        } else {
          parent_mask_ = size;  // root sends over every mask below size
          phase_ = Phase::kSending;
          post_child_sends(vrank, size);
        }
        continue;
      }
      if (!stage_requests_done()) return;
      reap_stage_requests();
      if (phase_ == Phase::kReceiving) {
        phase_ = Phase::kSending;
        post_child_sends(vrank, size);
        continue;
      }
      done_ = true;  // kSending finished
    }
  }

 private:
  enum class Phase { kStart, kReceiving, kSending };

  void post_child_sends(int vrank, int size) {
    // Children are vrank + mask for masks below the parent bit.
    for (int mask = 1; mask < parent_mask_ && vrank + mask < size;
         mask <<= 1) {
      post_send(buf_, count_, type_, (vrank + mask + root_) % size, 0);
    }
  }

  void* buf_;
  int count_;
  Datatype type_;
  int root_;
  std::function<bool()> wait_for_;
  Phase phase_ = Phase::kStart;
  int parent_mask_ = 0;
};

}  // namespace

std::unique_ptr<CollectiveOp> ibcast(Endpoint& ep, void* buf, int count,
                                     const Datatype& type, int root,
                                     Comm comm) {
  return std::make_unique<BcastOp>(ep, buf, count, type, root, comm,
                                   nullptr, /*owns_seq=*/true);
}

// ---------------------------------------------------------------------------
// Reduce: binomial tree towards `root`, commutative combine.
// ---------------------------------------------------------------------------
namespace {

class ReduceOp final : public CollectiveOp {
 public:
  ReduceOp(Endpoint& ep, const void* send_buf, void* recv_buf, int count,
           const Datatype& type, ReduceFn op, int root, Comm comm)
      : CollectiveOp(ep),
        recv_buf_(recv_buf),
        count_(count),
        type_(type),
        op_(std::move(op)),
        root_(root) {
    NMAD_ASSERT_MSG(type.is_contiguous(),
                    "reduce requires a contiguous datatype");
    comm_ = comm;
    seq_ = ep.next_collective_seq(comm);
    // Accumulator starts as a copy of this rank's contribution.
    acc_.resize(type.size() * static_cast<size_t>(count));
    std::memcpy(acc_.data(), send_buf, acc_.size());
  }

  [[nodiscard]] const std::byte* result() const { return acc_.data(); }

 protected:
  void advance() override {
    const int size = ep_.size();
    const int vrank = (ep_.rank() - root_ + size) % size;
    while (!done_) {
      if (phase_ == Phase::kStart) {
        // Post receives from every child at once.
        int mask = 1;
        while (mask < size && (vrank & mask) == 0) {
          if (vrank + mask < size) {
            child_bufs_.emplace_back();
            child_bufs_.back().resize(acc_.size());
            post_recv(child_bufs_.back().view().data(), count_, type_,
                      (vrank + mask + root_) % size, 0);
          }
          mask <<= 1;
        }
        parent_mask_ = mask;
        phase_ = Phase::kReceiving;
        continue;
      }
      if (!stage_requests_done()) return;
      reap_stage_requests();
      if (phase_ == Phase::kReceiving) {
        for (const util::ByteBuffer& child : child_bufs_) {
          op_(acc_.data(), child.data(), count_);
        }
        child_bufs_.clear();
        if (vrank != 0) {
          const int vparent = vrank & ~parent_mask_;
          post_send(acc_.data(), count_, type_, (vparent + root_) % size,
                    0);
          phase_ = Phase::kSending;
          continue;
        }
        std::memcpy(recv_buf_, acc_.data(), acc_.size());
        done_ = true;
        continue;
      }
      done_ = true;  // kSending finished
    }
  }

 private:
  enum class Phase { kStart, kReceiving, kSending };

  void* recv_buf_;
  int count_;
  Datatype type_;
  ReduceFn op_;
  int root_;
  util::ByteBuffer acc_;
  std::vector<util::ByteBuffer> child_bufs_;
  Phase phase_ = Phase::kStart;
  int parent_mask_ = 0;
};

// Allreduce: reduce to rank 0, then broadcast from rank 0.
class AllreduceOp final : public CollectiveOp {
 public:
  AllreduceOp(Endpoint& ep, const void* send_buf, void* recv_buf, int count,
              const Datatype& type, ReduceFn op, Comm comm)
      : CollectiveOp(ep) {
    comm_ = comm;
    seq_ = ep.next_collective_seq(comm);
    if (ep.rank() != 0) {
      // Non-root ranks receive the broadcast straight into recv_buf; give
      // the reduce phase a scratch destination it never uses.
      scratch_.resize(type.size() * static_cast<size_t>(count));
    }
    reduce_ = std::make_unique<ReduceOp>(
        ep, send_buf, ep.rank() == 0 ? recv_buf : scratch_.view().data(),
        count, type, std::move(op), /*root=*/0, comm);
    auto* reduce_raw = reduce_.get();
    bcast_ = std::make_unique<BcastOp>(
        ep, recv_buf, count, type, /*root=*/0, comm,
        [reduce_raw]() { return reduce_raw->done(); }, /*owns_seq=*/false);
    bcast_->set_seq(seq_ | 0x2000u);  // disjoint from the reduce's tags
  }

 protected:
  void advance() override { done_ = bcast_->done(); }

 private:
  util::ByteBuffer scratch_;
  std::unique_ptr<ReduceOp> reduce_;
  std::unique_ptr<BcastOp> bcast_;
};

}  // namespace

std::unique_ptr<CollectiveOp> ireduce(Endpoint& ep, const void* send_buf,
                                      void* recv_buf, int count,
                                      const Datatype& type, ReduceFn op,
                                      int root, Comm comm) {
  return std::make_unique<ReduceOp>(ep, send_buf, recv_buf, count, type,
                                    std::move(op), root, comm);
}

std::unique_ptr<CollectiveOp> iallreduce(Endpoint& ep, const void* send_buf,
                                         void* recv_buf, int count,
                                         const Datatype& type, ReduceFn op,
                                         Comm comm) {
  return std::make_unique<AllreduceOp>(ep, send_buf, recv_buf, count, type,
                                       std::move(op), comm);
}

// ---------------------------------------------------------------------------
// Gather / Scatter / Alltoall: flat single-stage patterns.
// ---------------------------------------------------------------------------
namespace {

class FlatOp final : public CollectiveOp {
 public:
  enum class Kind { kGather, kScatter, kAlltoall };

  FlatOp(Endpoint& ep, Kind kind, const void* send_buf, void* recv_buf,
         int count, const Datatype& type, int root, Comm comm)
      : CollectiveOp(ep) {
    NMAD_ASSERT_MSG(type.is_contiguous(),
                    "flat collectives require contiguous datatypes");
    comm_ = comm;
    seq_ = ep.next_collective_seq(comm);

    const int rank = ep.rank();
    const int size = ep.size();
    const size_t slot = type.size() * static_cast<size_t>(count);
    const auto* send_bytes = static_cast<const std::byte*>(send_buf);
    auto* recv_bytes = static_cast<std::byte*>(recv_buf);

    switch (kind) {
      case Kind::kGather:
        if (rank == root) {
          for (int r = 0; r < size; ++r) {
            if (r == rank) {
              std::memcpy(recv_bytes + r * slot, send_bytes, slot);
            } else {
              post_recv(recv_bytes + r * slot, count, type, r, 0);
            }
          }
        } else {
          post_send(send_bytes, count, type, root, 0);
        }
        break;
      case Kind::kScatter:
        if (rank == root) {
          for (int r = 0; r < size; ++r) {
            if (r == rank) {
              std::memcpy(recv_bytes, send_bytes + r * slot, slot);
            } else {
              post_send(send_bytes + r * slot, count, type, r, 0);
            }
          }
        } else {
          post_recv(recv_bytes, count, type, root, 0);
        }
        break;
      case Kind::kAlltoall:
        for (int r = 0; r < size; ++r) {
          if (r == rank) {
            std::memcpy(recv_bytes + r * slot, send_bytes + r * slot, slot);
            continue;
          }
          post_recv(recv_bytes + r * slot, count, type, r, 0);
          post_send(send_bytes + r * slot, count, type, r, 0);
        }
        break;
    }
  }

 protected:
  void advance() override {
    if (!stage_requests_done()) return;
    reap_stage_requests();
    done_ = true;
  }
};

}  // namespace

std::unique_ptr<CollectiveOp> igather(Endpoint& ep, const void* send_buf,
                                      void* recv_buf, int count,
                                      const Datatype& type, int root,
                                      Comm comm) {
  return std::make_unique<FlatOp>(ep, FlatOp::Kind::kGather, send_buf,
                                  recv_buf, count, type, root, comm);
}

std::unique_ptr<CollectiveOp> iscatter(Endpoint& ep, const void* send_buf,
                                       void* recv_buf, int count,
                                       const Datatype& type, int root,
                                       Comm comm) {
  return std::make_unique<FlatOp>(ep, FlatOp::Kind::kScatter, send_buf,
                                  recv_buf, count, type, root, comm);
}

std::unique_ptr<CollectiveOp> ialltoall(Endpoint& ep, const void* send_buf,
                                        void* recv_buf, int count,
                                        const Datatype& type, Comm comm) {
  return std::make_unique<FlatOp>(ep, FlatOp::Kind::kAlltoall, send_buf,
                                  recv_buf, count, type, /*root=*/0, comm);
}

// ---------------------------------------------------------------------------
// Predefined combiners.
// ---------------------------------------------------------------------------

ReduceFn sum_int() {
  return [](void* inout, const void* in, int count) {
    auto* a = static_cast<int*>(inout);
    const auto* b = static_cast<const int*>(in);
    for (int i = 0; i < count; ++i) a[i] += b[i];
  };
}

ReduceFn sum_double() {
  return [](void* inout, const void* in, int count) {
    auto* a = static_cast<double*>(inout);
    const auto* b = static_cast<const double*>(in);
    for (int i = 0; i < count; ++i) a[i] += b[i];
  };
}

}  // namespace nmad::mpi
