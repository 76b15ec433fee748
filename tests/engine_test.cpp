// Tests for the SM timing engine and Device front end, exercised through
// small hand-built kernels with exactly known counter values.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "gpusim/engine.hpp"
#include "kernels/kernel_base.hpp"

namespace bf::gpusim {
namespace {

using kernels::lane_addrs;

/// A warp's instructions in expanded form, replayed through the sink.
using Script = std::vector<WarpInstr>;

/// A trivially scriptable kernel: every warp of every block runs the same
/// caller-provided trace.
class ScriptKernel final : public TraceKernel {
 public:
  ScriptKernel(LaunchGeometry geom, Script trace)
      : geom_(geom), trace_(std::move(trace)) {}

  std::string name() const override { return "script"; }
  LaunchGeometry geometry() const override { return geom_; }
  void emit_warp(int /*block*/, int /*warp*/,
                 TraceSink& sink) const override {
    for (const auto& in : trace_) {
      switch (in.op) {
        case Op::kIAlu:
        case Op::kFAlu:
        case Op::kSfu:
          sink.alu(in.mask, 1, in.op);
          break;
        case Op::kBranch:
          sink.branch(in.mask, in.divergent);
          break;
        case Op::kSync:
          sink.sync();
          break;
        case Op::kLdGlobal:
          sink.global_load(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kStGlobal:
          sink.global_store(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kLdShared:
          sink.shared_load(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kStShared:
          sink.shared_store(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kAtomicShared:
          sink.shared_atomic(in.mask, in.addr, in.access_bytes);
          break;
      }
    }
  }

 private:
  LaunchGeometry geom_;
  Script trace_;
};

LaunchGeometry one_warp_blocks(int blocks) {
  LaunchGeometry g;
  g.grid_x = blocks;
  g.block_x = 32;
  g.registers_per_thread = 16;
  return g;
}

WarpInstr alu_instr() {
  WarpInstr in;
  in.op = Op::kFAlu;
  return in;
}

WarpInstr load_instr(std::uint32_t base) {
  WarpInstr in;
  in.op = Op::kLdGlobal;
  in.addr = lane_addrs([base](int lane) { return base + 4u * lane; });
  return in;
}

TEST(Engine, ExactCountersForTinyKernel) {
  // 3 blocks x 1 warp, each: 2 FAlu + 1 coalesced load + 1 store.
  Script trace;
  trace.push_back(alu_instr());
  trace.push_back(alu_instr());
  trace.push_back(load_instr(0));
  WarpInstr store = load_instr(4096);
  store.op = Op::kStGlobal;
  trace.push_back(store);

  const Device device(gtx580());
  const ScriptKernel kernel(one_warp_blocks(3), trace);
  const RunResult r = device.run(kernel);

  EXPECT_EQ(r.blocks_total, 3);
  EXPECT_EQ(r.blocks_simulated, 3);
  EXPECT_DOUBLE_EQ(r.sample_scale, 1.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kInstExecuted), 12.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kGldRequest), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kGstRequest), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kThreadInstExecuted), 12.0 * 32);
  // One 128-byte load per block, all to the same line but on different
  // SMs -> L1 cold miss each.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kGlobalLoadTransaction), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kFlopCount), 6.0 * 32);
  EXPECT_GT(r.time_ms, 0.0);
}

TEST(Engine, SameBlockLoadsHitL1) {
  // One block loading the same line twice: second access hits.
  Script trace;
  trace.push_back(load_instr(0));
  trace.push_back(load_instr(0));
  const Device device(gtx580());
  const ScriptKernel kernel(one_warp_blocks(1), trace);
  const RunResult r = device.run(kernel);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadMiss), 1.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadHit), 1.0);
}

TEST(Engine, KeplerBypassesL1ForGlobalLoads) {
  Script trace;
  trace.push_back(load_instr(0));
  trace.push_back(load_instr(0));
  const Device device(kepler_k20m());
  const ScriptKernel kernel(one_warp_blocks(1), trace);
  const RunResult r = device.run(kernel);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadMiss), 0.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadHit), 0.0);
  // 32 lanes * 4 B = 128 B = 4 x 32 B L2 segments, twice.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL2ReadTransactions), 8.0);
}

TEST(Engine, BankConflictReplaysCountedAndCostly) {
  // Shared load at word stride 32: a 32-way conflict -> 31 replays.
  WarpInstr conflict;
  conflict.op = Op::kLdShared;
  conflict.addr = lane_addrs([](int lane) { return 128u * lane; });
  WarpInstr clean;
  clean.op = Op::kLdShared;
  clean.addr = lane_addrs([](int lane) { return 4u * lane; });

  const Device device(gtx580());
  const RunResult bad =
      device.run(ScriptKernel(one_warp_blocks(1), {conflict}));
  const RunResult good =
      device.run(ScriptKernel(one_warp_blocks(1), {clean}));
  EXPECT_DOUBLE_EQ(bad.counters.get(Event::kSharedBankConflict), 31.0);
  EXPECT_DOUBLE_EQ(good.counters.get(Event::kSharedBankConflict), 0.0);
  EXPECT_DOUBLE_EQ(bad.counters.get(Event::kInstIssued), 32.0);
  EXPECT_DOUBLE_EQ(bad.counters.get(Event::kInstExecuted), 1.0);
  EXPECT_GT(bad.counters.get(Event::kElapsedCycles),
            good.counters.get(Event::kElapsedCycles));
}

TEST(Engine, UncoalescedLoadsCostMoreTime) {
  WarpInstr scattered;
  scattered.op = Op::kLdGlobal;
  scattered.addr = lane_addrs([](int lane) { return 4096u * lane; });
  Script bad_trace(8, scattered);
  Script good_trace(8, load_instr(0));

  const Device device(gtx580());
  const RunResult bad =
      device.run(ScriptKernel(one_warp_blocks(4), bad_trace));
  const RunResult good =
      device.run(ScriptKernel(one_warp_blocks(4), good_trace));
  EXPECT_GT(bad.counters.get(Event::kGlobalLoadTransaction),
            8.0 * good.counters.get(Event::kGlobalLoadTransaction));
  EXPECT_GT(bad.time_ms, good.time_ms);
}

TEST(Engine, BarrierSynchronisesWarps) {
  // Two warps per block; both must pass the sync. If barrier handling
  // were broken this would deadlock (and BF_CHECK would fire).
  LaunchGeometry g;
  g.grid_x = 2;
  g.block_x = 64;
  g.registers_per_thread = 16;
  Script trace;
  trace.push_back(alu_instr());
  WarpInstr sync;
  sync.op = Op::kSync;
  trace.push_back(sync);
  trace.push_back(alu_instr());
  const Device device(gtx580());
  const RunResult r = device.run(ScriptKernel(g, trace));
  // 2 blocks x 2 warps x 3 instructions.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kInstExecuted), 12.0);
}

TEST(Engine, DivergentBranchCounted) {
  WarpInstr br;
  br.op = Op::kBranch;
  br.divergent = true;
  WarpInstr uniform;
  uniform.op = Op::kBranch;
  uniform.divergent = false;
  const Device device(gtx580());
  const RunResult r =
      device.run(ScriptKernel(one_warp_blocks(1), {br, uniform, br}));
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kBranch), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kDivergentBranch), 2.0);
}

TEST(Engine, SamplingScalesCounters) {
  // A large grid gets sampled; extensive counters must be scaled back to
  // the full grid within a small tolerance.
  Script trace;
  for (int i = 0; i < 4; ++i) trace.push_back(alu_instr());
  const Device device(gtx580());

  RunOptions full;
  full.max_sampled_blocks = 0;
  RunOptions sampled;
  sampled.max_sampled_blocks = 128;

  const ScriptKernel kernel(one_warp_blocks(4096), trace);
  const RunResult rf = device.run(kernel, full);
  const RunResult rs = device.run(kernel, sampled);
  EXPECT_EQ(rf.blocks_simulated, 4096);
  EXPECT_LT(rs.blocks_simulated, 4096);
  EXPECT_GT(rs.sample_scale, 1.0);
  EXPECT_NEAR(rs.counters.get(Event::kInstExecuted),
              rf.counters.get(Event::kInstExecuted),
              0.02 * rf.counters.get(Event::kInstExecuted));
  EXPECT_NEAR(rs.time_ms, rf.time_ms, 0.25 * rf.time_ms);
}

TEST(Engine, OccupancyCounterMatchesResidency) {
  // A single resident warp per SM: achieved occupancy must be ~1/48.
  Script trace;
  for (int i = 0; i < 50; ++i) trace.push_back(alu_instr());
  const Device device(gtx580());
  const RunResult r = device.run(ScriptKernel(one_warp_blocks(1), trace));
  const double occ = r.counters.get(Event::kActiveWarpCycles) /
                     (r.counters.get(Event::kActiveCycles) *
                      gtx580().max_warps_per_sm);
  EXPECT_NEAR(occ, 1.0 / 48.0, 1e-3);
}

TEST(Engine, MoreWarpsRaiseIpcUntilSaturation) {
  // Latency-bound with 1 warp; throughput-bound with many warps.
  Script trace;
  for (int i = 0; i < 64; ++i) trace.push_back(alu_instr());
  const Device device(gtx580());

  LaunchGeometry small = one_warp_blocks(1);
  LaunchGeometry big;
  big.grid_x = 16;  // one block per SM
  big.block_x = 512;
  big.registers_per_thread = 16;

  const RunResult r1 = device.run(ScriptKernel(small, trace));
  const RunResult r2 = device.run(ScriptKernel(big, trace));
  const double ipc1 = r1.counters.get(Event::kInstExecuted) /
                      r1.counters.get(Event::kActiveCycles);
  const double ipc2 = r2.counters.get(Event::kInstExecuted) /
                      r2.counters.get(Event::kActiveCycles);
  EXPECT_GT(ipc2, 3.0 * ipc1);
  // Fermi peak: 2 schedulers / 2-cycle issue -> ipc <= 1.
  EXPECT_LE(ipc2, 1.0 + 1e-9);
}

TEST(Engine, BandwidthRooflineEngages) {
  // A pure streaming kernel over a huge range must end bandwidth-bound.
  LaunchGeometry g;
  g.grid_x = 4096;
  g.block_x = 256;
  g.registers_per_thread = 12;
  Script trace;
  // Each warp loads 4 distinct lines (spread by block via emit: same
  // trace per block hits the same addresses; use big strides to kill
  // locality between segments).
  for (int i = 0; i < 4; ++i) {
    WarpInstr in;
    in.op = Op::kLdGlobal;
    const std::uint32_t base = 1u << 20;
    in.addr = lane_addrs([=](int lane) {
      return base + 131072u * i + 4u * lane;
    });
    trace.push_back(in);
  }
  const Device device(gtx580());
  const RunResult r = device.run(ScriptKernel(g, trace));
  EXPECT_GT(r.counters.get(Event::kDramReadTransactions), 0.0);
}

TEST(Engine, AggregateResultAccumulates) {
  Script trace{alu_instr()};
  const Device device(gtx580());
  const ScriptKernel kernel(one_warp_blocks(2), trace);
  AggregateResult agg;
  agg.add(device.run(kernel));
  agg.add(device.run(kernel));
  EXPECT_EQ(agg.launches, 2);
  EXPECT_DOUBLE_EQ(agg.counters.get(Event::kInstExecuted), 4.0);
  EXPECT_GT(agg.time_ms, 0.0);
}

TEST(Engine, EmptyGridRejected) {
  LaunchGeometry g;
  g.grid_x = 0;
  g.block_x = 32;
  const Device device(gtx580());
  const ScriptKernel kernel(g, {alu_instr()});
  EXPECT_THROW(device.run(kernel), Error);
}

}  // namespace
}  // namespace bf::gpusim
