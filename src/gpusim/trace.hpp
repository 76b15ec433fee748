// Warp-level instruction traces: the contract between kernels and the
// timing engine.
//
// A kernel describes, for each warp of each thread block, the sequence of
// warp-wide instructions it executes, including per-lane byte addresses for
// memory operations and the active-thread mask (divergent branches appear
// as instructions with partial masks, exactly as a real SIMT pipeline
// serialises them). The sink resolves each memory op against the
// architecture as it is emitted and stores only the result: bank passes
// for shared accesses, coalesced segments for global ones.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gpusim/arch.hpp"

namespace bf::gpusim {

enum class Op : std::uint8_t {
  kIAlu,      ///< integer add/mul/shift/compare
  kFAlu,      ///< single-precision add/mul/fma
  kSfu,       ///< special-function (rsqrt, exp, ...)
  kLdGlobal,  ///< global memory load
  kStGlobal,  ///< global memory store
  kLdShared,  ///< shared memory load
  kStShared,  ///< shared memory store
  kAtomicShared,  ///< atomic read-modify-write on shared memory
  kBranch,    ///< branch instruction
  kSync,      ///< __syncthreads() barrier
};

inline bool is_memory_op(Op op) {
  return op == Op::kLdGlobal || op == Op::kStGlobal || op == Op::kLdShared ||
         op == Op::kStShared || op == Op::kAtomicShared;
}

inline constexpr std::uint32_t kFullMask = 0xffffffffu;

/// One warp-wide instruction in expanded form. For memory ops, addr[lane]
/// holds the byte address accessed by each active lane (inactive lanes are
/// ignored). This is what the coalescer and the bank-conflict model read;
/// the engine stores the resolved TraceRecord instead.
struct WarpInstr {
  Op op = Op::kIAlu;
  std::uint32_t mask = kFullMask;
  std::uint8_t access_bytes = 4;  ///< per-lane access width for memory ops
  bool divergent = false;         ///< for kBranch: did the warp diverge?
  std::array<std::uint32_t, 32> addr{};
};

/// One instruction as the engine stores it: memory ops are already
/// resolved against the architecture when emitted, so no lane addresses
/// are kept.
struct TraceRecord {
  Op op = Op::kIAlu;
  std::uint8_t access_bytes = 4;
  bool divergent = false;
  std::uint32_t mask = kFullMask;
  /// Global ops: the coalesced segments are WarpTrace::segments
  /// [seg_begin, seg_begin + seg_count), ascending.
  std::uint32_t seg_begin = 0;
  std::uint16_t seg_count = 0;
  /// Shared loads, stores and atomics: serialised bank passes (>= 1).
  std::uint16_t passes = 1;
};
static_assert(sizeof(TraceRecord) == 16, "trace records stay compact");

/// A warp's resolved trace plus the pool of segment base addresses its
/// global accesses touch.
struct WarpTrace {
  explicit WarpTrace(std::pmr::memory_resource* memory =
                         std::pmr::get_default_resource())
      : instrs(memory), segments(memory) {}

  std::pmr::vector<TraceRecord> instrs;
  std::pmr::vector<std::uint64_t> segments;

  bool empty() const { return instrs.empty(); }
  std::size_t size() const { return instrs.size(); }
  void clear() {
    instrs.clear();
    segments.clear();
  }
};

/// Builder through which kernels emit a warp's instructions. Memory ops
/// are resolved here, once: shared and atomic accesses to bank passes,
/// global loads to segments of the L1 transaction size when L1 caches
/// global loads (else the L2 one), global stores to L2 segments.
class TraceSink {
 public:
  TraceSink(const ArchSpec& arch, WarpTrace& out);

  /// `count` back-to-back arithmetic instructions under `mask`.
  void alu(std::uint32_t mask, int count = 1, Op op = Op::kFAlu) {
    BF_CHECK(op == Op::kIAlu || op == Op::kFAlu || op == Op::kSfu);
    TraceRecord in;
    in.op = op;
    in.mask = mask;
    out_.instrs.insert(out_.instrs.end(),
                       static_cast<std::size_t>(std::max(count, 0)), in);
  }

  void global_load(std::uint32_t mask, const std::array<std::uint32_t, 32>& addr,
                   std::uint8_t access_bytes = 4) {
    push_mem(Op::kLdGlobal, mask, addr, access_bytes);
  }
  void global_store(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    std::uint8_t access_bytes = 4) {
    push_mem(Op::kStGlobal, mask, addr, access_bytes);
  }
  void shared_load(std::uint32_t mask,
                   const std::array<std::uint32_t, 32>& addr,
                   std::uint8_t access_bytes = 4) {
    push_mem(Op::kLdShared, mask, addr, access_bytes);
  }
  void shared_store(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    std::uint8_t access_bytes = 4) {
    push_mem(Op::kStShared, mask, addr, access_bytes);
  }

  /// Atomic read-modify-write on shared memory (atomicAdd & friends).
  /// Unlike plain accesses, lanes hitting the SAME address serialise.
  void shared_atomic(std::uint32_t mask,
                     const std::array<std::uint32_t, 32>& addr,
                     std::uint8_t access_bytes = 4) {
    push_mem(Op::kAtomicShared, mask, addr, access_bytes);
  }

  void branch(std::uint32_t mask, bool divergent) {
    TraceRecord in;
    in.op = Op::kBranch;
    in.mask = mask;
    in.divergent = divergent;
    out_.instrs.push_back(in);
  }

  void sync() {
    TraceRecord in;
    in.op = Op::kSync;
    out_.instrs.push_back(in);
  }

 private:
  void push_mem(Op op, std::uint32_t mask,
                const std::array<std::uint32_t, 32>& addr,
                std::uint8_t access_bytes);

  const ArchSpec& arch_;
  const int load_segment_bytes_;
  const int store_segment_bytes_;
  WarpTrace& out_;
};

/// Kernel launch shape (2D grid of 2D blocks, flattened internally).
struct LaunchGeometry {
  int grid_x = 1;
  int grid_y = 1;
  int block_x = 1;
  int block_y = 1;
  int shared_mem_per_block = 0;   ///< bytes of static+dynamic shared memory
  int registers_per_thread = 20;

  int num_blocks() const { return grid_x * grid_y; }
  int block_size() const { return block_x * block_y; }
  int warps_per_block(int warp_size = 32) const {
    return (block_size() + warp_size - 1) / warp_size;
  }
};

/// The interface kernels implement: given a flat block index and a warp
/// index within the block, emit that warp's trace. Device::run simulates
/// SMs on several threads, so emit_warp is called concurrently and must
/// not modify shared state.
class TraceKernel {
 public:
  virtual ~TraceKernel() = default;
  virtual std::string name() const = 0;
  virtual LaunchGeometry geometry() const = 0;
  virtual void emit_warp(int block, int warp, TraceSink& sink) const = 0;
};

/// Lane mask helpers.
inline std::uint32_t mask_first_lanes(int n) {
  BF_CHECK(n >= 0 && n <= 32);
  return n == 32 ? kFullMask : ((1u << n) - 1u);
}

inline int popcount_mask(std::uint32_t mask) {
  return __builtin_popcount(mask);
}

}  // namespace bf::gpusim
