#include "gpusim/trace.hpp"

#include "gpusim/coalescer.hpp"
#include "gpusim/sharedmem.hpp"

namespace bf::gpusim {

TraceSink::TraceSink(const ArchSpec& arch, WarpTrace& out)
    : arch_(arch),
      load_segment_bytes_(arch.l1_caches_global_loads
                              ? arch.l1_transaction_bytes
                              : arch.l2_transaction_bytes),
      store_segment_bytes_(arch.l2_transaction_bytes),
      out_(out) {}

void TraceSink::push_mem(Op op, std::uint32_t mask,
                         const std::array<std::uint32_t, 32>& addr,
                         std::uint8_t access_bytes) {
  BF_CHECK_MSG(mask != 0, "memory op with empty mask");
  WarpInstr in;
  in.op = op;
  in.mask = mask;
  in.access_bytes = access_bytes;
  in.addr = addr;

  TraceRecord rec;
  rec.op = op;
  rec.mask = mask;
  rec.access_bytes = access_bytes;
  switch (op) {
    case Op::kLdShared:
    case Op::kStShared:
      rec.passes = static_cast<std::uint16_t>(shared_access_passes(in, arch_));
      break;
    case Op::kAtomicShared:
      rec.passes = static_cast<std::uint16_t>(shared_atomic_passes(in, arch_));
      break;
    case Op::kLdGlobal:
    case Op::kStGlobal: {
      const Segments segs = coalesce(
          in, op == Op::kLdGlobal ? load_segment_bytes_ : store_segment_bytes_);
      rec.seg_begin = static_cast<std::uint32_t>(out_.segments.size());
      rec.seg_count = static_cast<std::uint16_t>(segs.size());
      out_.segments.insert(out_.segments.end(), segs.begin(), segs.end());
      break;
    }
    default:
      BF_FAIL("push_mem on non-memory op");
  }
  out_.instrs.push_back(rec);
}

}  // namespace bf::gpusim
