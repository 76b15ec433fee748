// Global-memory coalescing: map a warp's per-lane addresses onto memory
// transactions of a fixed segment size (128 B when served by L1 on Fermi,
// 32 B segments when served by L2 on Kepler).
//
// The transaction count per request is exactly the signal the paper's §3.2
// reads from counters: "if the number of memory requests … is significantly
// lower than the number of actual memory transactions … this may indicate
// issues about memory access patterns."
#pragma once

#include <array>
#include <cstdint>

#include "gpusim/trace.hpp"

namespace bf::gpusim {

/// The distinct aligned segments one warp access touches, ascending. Each
/// active lane touches at most two (an access can straddle a boundary).
struct Segments {
  std::array<std::uint64_t, 64> base;
  int count = 0;

  const std::uint64_t* begin() const { return base.data(); }
  const std::uint64_t* end() const { return base.data() + count; }
  std::size_t size() const { return static_cast<std::size_t>(count); }
};

/// Distinct aligned segments touched by the active lanes of one access
/// (each base aligned to segment_bytes). A fully-coalesced 4-byte access
/// of 32 consecutive lanes yields one 128-byte segment or four 32-byte
/// segments.
Segments coalesce(const WarpInstr& instr, int segment_bytes);

/// Just the transaction count.
int coalesced_transaction_count(const WarpInstr& instr, int segment_bytes);

}  // namespace bf::gpusim
