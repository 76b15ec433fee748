// The warp-level timing engine and device front end.
//
// Execution model (a deliberately simplified GPGPU-Sim):
//  * Thread blocks are distributed round-robin over SMs; each SM keeps up
//    to the occupancy limit of blocks resident and admits the next queued
//    block as one retires.
//  * Each SM steps a cycle loop. Warps are statically assigned to warp
//    schedulers; per cycle each free scheduler issues from its ready warps
//    (round-robin), up to dispatch_units_per_scheduler instructions.
//  * Arithmetic ops occupy the scheduler for the warp-wide issue cost and
//    stall the issuing warp for the dependence latency (back-to-back
//    instructions of one warp are assumed dependent; concurrency comes
//    from other warps — i.e. from occupancy, as on real hardware).
//  * Warp traces arrive resolved (see trace.hpp): the sink already
//    coalesced each global access into segments and counted each shared
//    access's bank passes when the kernel emitted it, so issue only
//    reads the stored result.
//  * Every coalesced transaction beyond the first is an instruction
//    replay that occupies an extra issue slot. Loads probe L1 (Fermi
//    global-load path) and a per-SM slice of L2; the worst transaction's
//    level determines the warp's stall latency.
//  * Shared-memory ops serialise over bank-conflict passes; each extra
//    pass is a replay (counted in the *_replay / bank-conflict events).
//  * __syncthreads() parks warps until every live warp of the block
//    arrives.
//
// SMs share nothing (each has a private L1 and L2 slice), so Device::run
// simulates them in parallel on ThreadPool::global(), each into its own
// CounterSet, and merges the sets in SM order. Every event add is an
// integer far below 2^53, so the merged sums are exact and equal a serial
// running sum bit for bit at any thread count; elapsed cycles are the
// maximum over SMs. Concurrent Device::run calls are safe. The SMs' caches
// and traces live in pages mapped for the launch and unmapped when it
// returns, so no pool thread keeps simulator memory afterwards.
//
// Large grids are sampled: a representative subset of blocks is simulated
// and every extensive counter plus the elapsed time is scaled by
// total/sampled. A device-level DRAM bandwidth roofline is applied on top
// of the latency model, since per-SM simulation cannot model global
// bandwidth contention directly.
#pragma once

#include <cstdint>
#include <functional>

#include "gpusim/arch.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/trace.hpp"

namespace bf::gpusim {

/// Debug hook: invoked on the final counters of every Device::run when
/// counter validation is enabled (see RunOptions::validate_counters). The
/// engine cannot depend on bf::check, so the check library installs its
/// invariant validator here (check::install_engine_validator). Throwing
/// from the validator aborts the run with the violation report.
using CounterValidator =
    std::function<void(const CounterSet&, const ArchSpec&)>;

/// Install (or, with nullptr, remove) the process-wide validator. Not
/// thread-safe against concurrent Device::run calls; install once at
/// startup.
void set_counter_validator(CounterValidator validator);

/// The currently installed validator (empty when none).
const CounterValidator& counter_validator();

struct RunOptions {
  /// Upper bound on simulated blocks (0 = simulate the full grid). The
  /// engine rounds up so every SM receives at least two full occupancy
  /// waves when the grid is that large.
  int max_sampled_blocks = 128;
  /// Run the installed counter validator on the final counters. Also
  /// forced on for every run when BF_CHECK_COUNTERS=1 is set in the
  /// environment (the debug flag for existing callers).
  bool validate_counters = false;
};

struct RunResult {
  CounterSet counters;
  double time_ms = 0.0;
  OccupancyResult occupancy;
  std::int64_t blocks_total = 0;
  std::int64_t blocks_simulated = 0;
  double sample_scale = 1.0;
  /// True when the DRAM bandwidth roofline, not the latency model,
  /// determined the final time.
  bool bandwidth_bound = false;
};

class Device {
 public:
  explicit Device(ArchSpec arch) : arch_(std::move(arch)) {}

  const ArchSpec& arch() const { return arch_; }

  /// Execute one kernel launch and return its counters and elapsed time.
  RunResult run(const TraceKernel& kernel, const RunOptions& opts = {}) const;

 private:
  ArchSpec arch_;
};

/// Accumulate launch results into an application-level aggregate: counters
/// and times add up (the paper treats NW's many launches this way).
struct AggregateResult {
  CounterSet counters;
  double time_ms = 0.0;
  double occupancy_weighted = 0.0;  ///< time-weighted achieved residency
  std::int64_t launches = 0;

  void add(const RunResult& r, double weight = 1.0);
};

}  // namespace bf::gpusim
