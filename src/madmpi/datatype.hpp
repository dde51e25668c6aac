// MPI derived datatypes (the subset MAD-MPI exercises, §3.4/§5.3).
//
// A Datatype is normalised at construction into a flat list of
// (byte_displacement, length) blocks for one element; adjacent blocks are
// coalesced. This single representation serves three consumers:
//   - MAD-MPI: converts blocks to engine Source/Dest layouts, one engine
//     chunk per block (the per-block send algorithm of §5.3);
//   - baselines: pack()/unpack() through a contiguous bounce buffer, the
//     documented MPICH behaviour;
//   - tests: structural equality and size/extent laws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nmad/core/layout.hpp"
#include "util/buffer.hpp"

namespace nmad::mpi {

class Datatype {
 public:
  struct Block {
    ptrdiff_t disp = 0;  // byte displacement from the element base
    size_t len = 0;      // contiguous bytes
  };

  // Predefined types.
  static Datatype byte_type();
  static Datatype int_type();
  static Datatype double_type();

  // Type constructors (mirroring MPI_Type_*).
  static Datatype contiguous(int count, const Datatype& old);
  static Datatype vector(int count, int blocklength, int stride,
                         const Datatype& old);
  static Datatype hvector(int count, int blocklength, ptrdiff_t stride_bytes,
                          const Datatype& old);
  static Datatype indexed(std::span<const int> blocklengths,
                          std::span<const int> displacements,
                          const Datatype& old);
  static Datatype hindexed(std::span<const int> blocklengths,
                           std::span<const ptrdiff_t> displacements_bytes,
                           const Datatype& old);
  static Datatype struct_type(std::span<const int> blocklengths,
                              std::span<const ptrdiff_t> displacements_bytes,
                              std::span<const Datatype> types);

  // Number of data bytes in one element (sum of block lengths).
  [[nodiscard]] size_t size() const { return size_; }
  // Span from the lowest to one past the highest addressed byte, i.e. the
  // stride between consecutive elements in a count > 1 operation.
  [[nodiscard]] ptrdiff_t extent() const { return extent_; }
  [[nodiscard]] bool is_contiguous() const;
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  // Engine layout for `count` elements starting at `buf`.
  [[nodiscard]] core::SourceLayout source_layout(const void* buf,
                                                 int count) const;
  [[nodiscard]] core::DestLayout dest_layout(void* buf, int count) const;

  // Contiguous pack/unpack (the baseline MPI implementations' path).
  void pack(const void* buf, int count, util::MutableBytes out) const;
  void unpack(util::ConstBytes in, void* buf, int count) const;

 private:
  Datatype(std::vector<Block> blocks, ptrdiff_t extent);

  static void append_coalesced(std::vector<Block>& blocks, ptrdiff_t disp,
                               size_t len);

  std::vector<Block> blocks_;  // ordered by construction, coalesced
  size_t size_ = 0;
  ptrdiff_t extent_ = 0;
};

}  // namespace nmad::mpi
