#include "gpusim/coalescer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bf::gpusim {

Segments coalesce(const WarpInstr& instr, int segment_bytes) {
  BF_CHECK_MSG(segment_bytes > 0 && (segment_bytes & (segment_bytes - 1)) == 0,
               "segment size must be a power of two");
  BF_CHECK_MSG(is_memory_op(instr.op), "coalesce on non-memory instruction");
  const std::uint64_t seg_mask = ~static_cast<std::uint64_t>(segment_bytes - 1);

  // A lane access of `access_bytes` may straddle a segment boundary; cover
  // both ends. Lanes usually walk memory upwards, so bases arrive sorted
  // and a repeat of the previous base is dropped on the spot; only an
  // out-of-order base needs the sort-unique at the end.
  Segments out;
  bool sorted = true;
  const auto push = [&](std::uint64_t seg) {
    if (out.count > 0) {
      const std::uint64_t prev = out.base[static_cast<std::size_t>(out.count - 1)];
      if (seg == prev) return;
      sorted = sorted && seg > prev;
    }
    out.base[static_cast<std::size_t>(out.count++)] = seg;
  };
  for (int lane = 0; lane < 32; ++lane) {
    if (((instr.mask >> lane) & 1u) == 0) continue;
    const std::uint64_t first = instr.addr[static_cast<std::size_t>(lane)];
    const std::uint64_t last = first + instr.access_bytes - 1;
    push(first & seg_mask);
    if ((last & seg_mask) != (first & seg_mask)) push(last & seg_mask);
  }
  if (!sorted) {
    auto* b = out.base.data();
    std::sort(b, b + out.count);
    out.count = static_cast<int>(std::unique(b, b + out.count) - b);
  }
  return out;
}

int coalesced_transaction_count(const WarpInstr& instr, int segment_bytes) {
  return static_cast<int>(coalesce(instr, segment_bytes).size());
}

}  // namespace bf::gpusim
