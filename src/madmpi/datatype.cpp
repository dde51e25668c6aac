#include "madmpi/datatype.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace nmad::mpi {

Datatype::Datatype(std::vector<Block> blocks, ptrdiff_t extent)
    : blocks_(std::move(blocks)), extent_(extent) {
  for (const Block& b : blocks_) size_ += b.len;
  NMAD_ASSERT_MSG(extent_ >= 0, "negative extents are not supported");
}

void Datatype::append_coalesced(std::vector<Block>& blocks, ptrdiff_t disp,
                                size_t len) {
  if (len == 0) return;
  if (!blocks.empty() &&
      blocks.back().disp + static_cast<ptrdiff_t>(blocks.back().len) ==
          disp) {
    blocks.back().len += len;
  } else {
    blocks.push_back(Block{disp, len});
  }
}

bool Datatype::is_contiguous() const {
  return blocks_.size() <= 1 &&
         (blocks_.empty() ||
          (blocks_[0].disp == 0 &&
           blocks_[0].len == static_cast<size_t>(extent_)));
}

// ---------------------------------------------------------------------------
// Predefined types
// ---------------------------------------------------------------------------

namespace {
Datatype basic(size_t n) {
  return Datatype::contiguous(static_cast<int>(n), Datatype::byte_type());
}
}  // namespace

Datatype Datatype::byte_type() { return Datatype({Block{0, 1}}, 1); }
Datatype Datatype::int_type() { return basic(sizeof(int)); }
Datatype Datatype::double_type() { return basic(sizeof(double)); }

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

Datatype Datatype::contiguous(int count, const Datatype& old) {
  NMAD_ASSERT(count >= 0);
  return hvector(count, 1, old.extent(), old);
}

Datatype Datatype::vector(int count, int blocklength, int stride,
                          const Datatype& old) {
  return hvector(count, blocklength, stride * old.extent(), old);
}

Datatype Datatype::hvector(int count, int blocklength,
                           ptrdiff_t stride_bytes, const Datatype& old) {
  NMAD_ASSERT(count >= 0 && blocklength >= 0);
  std::vector<Block> blocks;
  ptrdiff_t max_end = 0;
  for (int i = 0; i < count; ++i) {
    const ptrdiff_t base = i * stride_bytes;
    for (int j = 0; j < blocklength; ++j) {
      const ptrdiff_t element = base + j * old.extent();
      for (const Block& b : old.blocks()) {
        append_coalesced(blocks, element + b.disp, b.len);
      }
    }
    max_end = std::max(max_end,
                       base + blocklength * old.extent());
  }
  return Datatype(std::move(blocks), max_end);
}

Datatype Datatype::indexed(std::span<const int> blocklengths,
                           std::span<const int> displacements,
                           const Datatype& old) {
  NMAD_ASSERT(blocklengths.size() == displacements.size());
  std::vector<ptrdiff_t> bytes(displacements.size());
  for (size_t i = 0; i < displacements.size(); ++i) {
    bytes[i] = displacements[i] * old.extent();
  }
  return hindexed(blocklengths, bytes, old);
}

Datatype Datatype::hindexed(std::span<const int> blocklengths,
                            std::span<const ptrdiff_t> displacements_bytes,
                            const Datatype& old) {
  NMAD_ASSERT(blocklengths.size() == displacements_bytes.size());
  std::vector<Block> blocks;
  ptrdiff_t max_end = 0;
  for (size_t i = 0; i < blocklengths.size(); ++i) {
    NMAD_ASSERT(blocklengths[i] >= 0);
    for (int j = 0; j < blocklengths[i]; ++j) {
      const ptrdiff_t element = displacements_bytes[i] + j * old.extent();
      for (const Block& b : old.blocks()) {
        append_coalesced(blocks, element + b.disp, b.len);
      }
    }
    max_end = std::max(
        max_end, displacements_bytes[i] + blocklengths[i] * old.extent());
  }
  return Datatype(std::move(blocks), max_end);
}

Datatype Datatype::struct_type(
    std::span<const int> blocklengths,
    std::span<const ptrdiff_t> displacements_bytes,
    std::span<const Datatype> types) {
  NMAD_ASSERT(blocklengths.size() == displacements_bytes.size() &&
              blocklengths.size() == types.size());
  std::vector<Block> blocks;
  ptrdiff_t max_end = 0;
  for (size_t i = 0; i < blocklengths.size(); ++i) {
    for (int j = 0; j < blocklengths[i]; ++j) {
      const ptrdiff_t element =
          displacements_bytes[i] + j * types[i].extent();
      for (const Block& b : types[i].blocks()) {
        append_coalesced(blocks, element + b.disp, b.len);
      }
    }
    max_end = std::max(max_end, displacements_bytes[i] +
                                    blocklengths[i] * types[i].extent());
  }
  return Datatype(std::move(blocks), max_end);
}

// ---------------------------------------------------------------------------
// Layout / pack / unpack
// ---------------------------------------------------------------------------

core::SourceLayout Datatype::source_layout(const void* buf,
                                           int count) const {
  const auto* base = static_cast<const std::byte*>(buf);
  std::vector<core::SourceLayout::Block> out;
  out.reserve(blocks_.size() * static_cast<size_t>(count));
  size_t logical = 0;
  for (int i = 0; i < count; ++i) {
    const ptrdiff_t element = i * extent_;
    for (const Block& b : blocks_) {
      // Coalesce across elements when memory stays adjacent (contiguous
      // types collapse to one engine block).
      if (!out.empty() &&
          out.back().memory.data() + out.back().memory.size() ==
              base + element + b.disp) {
        out.back().memory = util::ConstBytes{
            out.back().memory.data(), out.back().memory.size() + b.len};
      } else {
        out.push_back(core::SourceLayout::Block{
            logical, util::ConstBytes{base + element + b.disp, b.len}});
      }
      logical += b.len;
    }
  }
  return core::SourceLayout::scattered(std::move(out));
}

core::DestLayout Datatype::dest_layout(void* buf, int count) const {
  auto* base = static_cast<std::byte*>(buf);
  std::vector<core::DestLayout::Block> out;
  out.reserve(blocks_.size() * static_cast<size_t>(count));
  size_t logical = 0;
  for (int i = 0; i < count; ++i) {
    const ptrdiff_t element = i * extent_;
    for (const Block& b : blocks_) {
      if (!out.empty() &&
          out.back().memory.data() + out.back().memory.size() ==
              base + element + b.disp) {
        out.back().memory = util::MutableBytes{
            out.back().memory.data(), out.back().memory.size() + b.len};
      } else {
        out.push_back(core::DestLayout::Block{
            logical, util::MutableBytes{base + element + b.disp, b.len}});
      }
      logical += b.len;
    }
  }
  return core::DestLayout::scattered(std::move(out));
}

void Datatype::pack(const void* buf, int count,
                    util::MutableBytes out) const {
  NMAD_ASSERT(out.size() >= size_ * static_cast<size_t>(count));
  const auto* base = static_cast<const std::byte*>(buf);
  size_t pos = 0;
  for (int i = 0; i < count; ++i) {
    const ptrdiff_t element = i * extent_;
    for (const Block& b : blocks_) {
      std::memcpy(out.data() + pos, base + element + b.disp, b.len);
      pos += b.len;
    }
  }
}

void Datatype::unpack(util::ConstBytes in, void* buf, int count) const {
  NMAD_ASSERT(in.size() >= size_ * static_cast<size_t>(count));
  auto* base = static_cast<std::byte*>(buf);
  size_t pos = 0;
  for (int i = 0; i < count; ++i) {
    const ptrdiff_t element = i * extent_;
    for (const Block& b : blocks_) {
      std::memcpy(base + element + b.disp, in.data() + pos, b.len);
      pos += b.len;
    }
  }
}

}  // namespace nmad::mpi
