#include "madmpi/madmpi.hpp"

namespace nmad::mpi {

class MadMpiEndpoint::MadRequest final : public Request {
 public:
  MadRequest(core::Core& core, core::Request* inner,
             util::ByteBuffer packed = {})
      : core_(core), inner_(inner), packed_(std::move(packed)) {}
  ~MadRequest() override { core_.release(inner_); }

  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] util::Status status() const override {
    return inner_->status();
  }
  [[nodiscard]] size_t received_bytes() const override {
    if (inner_->kind() != core::Request::Kind::kRecv) return 0;
    return static_cast<const core::RecvRequest*>(inner_)->received_bytes();
  }

  [[nodiscard]] core::Request* inner() const { return inner_; }

 private:
  core::Core& core_;
  core::Request* inner_;
  util::ByteBuffer packed_;  // bounce for tiny-block datatype sends
};

namespace {

// Per-block submission pays a header and per-chunk costs per block; below
// this average block size a single packed copy is cheaper ([3]).
constexpr size_t kTinyBlockBytes = 512;
constexpr size_t kMinBlocksToPack = 8;

bool should_pack(const core::SourceLayout& src) {
  const size_t blocks = src.blocks().size();
  if (blocks < kMinBlocksToPack) return false;
  return src.total() / blocks < kTinyBlockBytes;
}

}  // namespace

MadMpiEndpoint::MadMpiEndpoint(simnet::SimWorld& world, core::Core& core,
                               int rank, int size)
    : Endpoint(world, rank, size), core_(core) {}

Request* MadMpiEndpoint::isend(const void* buf, int count,
                               const Datatype& type, int dest, int tag,
                               Comm comm) {
  NMAD_ASSERT(dest >= 0 && dest < size_ && dest != rank_);
  core::SourceLayout src = type.source_layout(buf, count);
  if (should_pack(src)) {
    // Many tiny blocks: one packed copy beats per-block headers. The wire
    // chunks carry logical offsets either way, so the receiver's layout
    // (packed or per-block) still matches.
    util::ByteBuffer packed;
    packed.resize(src.total());
    type.pack(buf, count, packed.view());
    core_.rt().cpu().charge_memcpy(packed.size());
    core::SendRequest* inner =
        core_.isend(core_.gate_to(dest), fold_tag(comm, tag),
                    core::SourceLayout::contiguous(packed.view()));
    return new MadRequest(core_, inner, std::move(packed));
  }
  core::SendRequest* inner =
      core_.isend(core_.gate_to(dest), fold_tag(comm, tag), src);
  return new MadRequest(core_, inner);
}

Request* MadMpiEndpoint::irecv(void* buf, int count, const Datatype& type,
                               int source, int tag, Comm comm) {
  NMAD_ASSERT(source >= 0 && source < size_ && source != rank_);
  core::RecvRequest* inner = core_.irecv(
      core_.gate_to(source), fold_tag(comm, tag),
      type.dest_layout(buf, count));
  return new MadRequest(core_, inner);
}

ProbeStatus MadMpiEndpoint::iprobe(int source, int tag, Comm comm) {
  NMAD_ASSERT(source >= 0 && source < size_ && source != rank_);
  const core::Core::PeekResult peek =
      core_.peek_unexpected(core_.gate_to(source), fold_tag(comm, tag));
  ProbeStatus status;
  status.matched = peek.matched;
  status.bytes = peek.total_bytes;
  return status;
}

void MadMpiEndpoint::free_request(Request* req) {
  delete static_cast<MadRequest*>(req);
}

bool MadMpiEndpoint::cancel(Request* req) {
  return core_.cancel(static_cast<MadRequest*>(req)->inner());
}

bool MadMpiEndpoint::set_deadline(Request* req, double timeout_us) {
  core_.set_deadline(static_cast<MadRequest*>(req)->inner(), timeout_us);
  return true;
}

util::Status MadMpiEndpoint::finalize(double deadline_us) {
  return core_.drain(deadline_us);
}

MadMpiWorld::MadMpiWorld(api::ClusterOptions options)
    : cluster_(std::move(options)) {
  const int size = static_cast<int>(cluster_.node_count());
  for (int rank = 0; rank < size; ++rank) {
    endpoints_.push_back(std::make_unique<MadMpiEndpoint>(
        cluster_.world(), cluster_.core(rank), rank, size));
  }
}

}  // namespace nmad::mpi
