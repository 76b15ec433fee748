#include "gpusim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <memory_resource>
#include <span>
#include <vector>

#include <sys/mman.h>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/cache.hpp"

namespace bf::gpusim {
namespace {

CounterValidator& validator_slot() {
  static CounterValidator validator;
  return validator;
}

bool validation_forced_by_env() {
  static const bool forced = [] {
    const char* v = std::getenv("BF_CHECK_COUNTERS");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  return forced;
}

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Pages mapped straight from the OS and unmapped on release. SMs run on
/// pool threads; from malloc, their caches and traces would leave every
/// thread that ran one with an arena top that malloc_trim cannot shrink,
/// which then sits under every later memory peak of the process.
class PageResource final : public std::pmr::memory_resource {
  void* do_allocate(std::size_t bytes, std::size_t /*alignment*/) override {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;  // page-aligned
  }
  void do_deallocate(void* p, std::size_t bytes,
                     std::size_t /*alignment*/) override {
    munmap(p, bytes);
  }
  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }
};

/// Pooled up to the largest blocks an SM asks for (warp traces reach
/// ~100 KiB on matrixMul at n = 2048, a Kepler L2 slice ~90 KiB), so
/// freed blocks are reused across the SMs of a launch.
std::pmr::pool_options sm_pool_options() {
  std::pmr::pool_options opts;
  opts.largest_required_pool_block = std::size_t{1} << 20;
  return opts;
}

struct WarpState {
  explicit WarpState(std::pmr::memory_resource* memory) : trace(memory) {}

  WarpTrace trace;
  std::size_t pc = 0;
  std::uint64_t ready = 0;
  int scheduler = 0;
  int block_slot = -1;  // index into SmSim::blocks_
  bool at_barrier = false;
  bool done = false;

  /// Back to a fresh warp, keeping the trace buffers' capacity.
  void reset() {
    trace.clear();
    pc = 0;
    ready = 0;
    scheduler = 0;
    block_slot = -1;
    at_barrier = false;
    done = false;
  }
};

struct BlockCtx {
  int block_id = 0;
  std::vector<std::unique_ptr<WarpState>> warps;
  int live_warps = 0;  // warps not yet done
  int at_barrier = 0;  // warps currently parked at the barrier
};

/// Simulates one SM over its assigned queue of blocks.
class SmSim {
 public:
  SmSim(const ArchSpec& arch, const TraceKernel& kernel,
        const LaunchGeometry& geom, int max_resident_blocks,
        std::vector<int> block_queue, std::pmr::memory_resource* memory)
      : memory_(memory),
        arch_(arch),
        kernel_(kernel),
        geom_(geom),
        max_resident_(max_resident_blocks),
        queue_(std::move(block_queue)),
        l1_(static_cast<std::int64_t>(arch.l1_size_kb) * 1024,
            arch.l1_line_bytes, arch.l1_assoc, memory),
        l2_(arch.l2_slice_bytes(),
            arch.generation == Generation::kKepler ? arch.l2_transaction_bytes
                                                   : arch.l2_line_bytes,
            arch.l2_assoc, memory),
        sched_busy_(static_cast<std::size_t>(arch.warp_schedulers_per_sm), 0),
        sched_rr_(static_cast<std::size_t>(arch.warp_schedulers_per_sm), 0),
        sched_warps_(static_cast<std::size_t>(arch.warp_schedulers_per_sm)) {}

  /// Run to completion; returns the SM's final cycle count.
  std::uint64_t run(CounterSet& counters) {
    counters_ = &counters;
    settle();
    while (!blocks_.empty()) {
      step();
      settle();
    }
    // Write-back of dirty L2 lines at kernel end (bytes leave to DRAM).
    const std::uint64_t dirty = l2_.flush_dirty();
    counters_->add(Event::kDramWriteTransactions,
                   static_cast<double>(dirty) *
                       (l2_.line_bytes() / arch_.l2_transaction_bytes));
    // The kernel is not finished until the last instruction *completes*
    // (its dependence latency drains), not merely when it issued.
    return std::max(cycle_, completion_cycle_);
  }

 private:
  // ---- block lifecycle ----

  /// Retire finished blocks and admit queued ones until stable (a freshly
  /// admitted block can be degenerate — all-empty traces — and retire
  /// immediately).
  void settle() {
    while (true) {
      bool changed = false;
      for (std::size_t b = 0; b < blocks_.size();) {
        if (blocks_[b]->live_warps == 0) {
          for (auto& w : blocks_[b]->warps) spare_warps_.push_back(std::move(w));
          blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(b));
          changed = true;
        } else {
          ++b;
        }
      }
      while (static_cast<int>(blocks_.size()) < max_resident_ &&
             next_in_queue_ < queue_.size()) {
        admit_one(queue_[next_in_queue_++]);
        changed = true;
      }
      if (changed) {
        rebuild_scheduler_lists();
      } else {
        break;
      }
    }
  }

  void admit_one(int block_id) {
    auto ctx = std::make_unique<BlockCtx>();
    ctx->block_id = block_id;
    const int warps = geom_.warps_per_block(arch_.warp_size);
    for (int w = 0; w < warps; ++w) {
      std::unique_ptr<WarpState> ws;
      if (spare_warps_.empty()) {
        ws = std::make_unique<WarpState>(memory_);
      } else {
        ws = std::move(spare_warps_.back());
        spare_warps_.pop_back();
        ws->reset();
      }
      TraceSink sink(arch_, ws->trace);
      kernel_.emit_warp(block_id, w, sink);
      ws->ready = cycle_;
      ws->scheduler =
          static_cast<int>(warp_admit_counter_++ %
                           static_cast<std::uint64_t>(sched_busy_.size()));
      if (ws->trace.empty()) {
        ws->done = true;
      } else {
        ++ctx->live_warps;
      }
      ctx->warps.push_back(std::move(ws));
    }
    blocks_.push_back(std::move(ctx));
  }

  void rebuild_scheduler_lists() {
    for (auto& lst : sched_warps_) lst.clear();
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      for (auto& w : blocks_[b]->warps) {
        w->block_slot = static_cast<int>(b);
        if (!w->done) {
          sched_warps_[static_cast<std::size_t>(w->scheduler)].push_back(
              w.get());
        }
      }
    }
  }

  // ---- main loop ----
  void step() {
    bool issued_any = false;
    const int dispatch = arch_.dispatch_units_per_scheduler;
    for (std::size_t s = 0; s < sched_busy_.size(); ++s) {
      if (sched_busy_[s] > cycle_) continue;
      for (int d = 0; d < dispatch; ++d) {
        WarpState* warp = pick_warp(s);
        if (warp == nullptr) break;
        const int cost = issue(warp);
        issued_any = true;
        if (cost > 1) {
          // A multi-slot instruction (wide issue or replays) occupies the
          // scheduler beyond this cycle; no further dispatch this cycle.
          sched_busy_[s] = cycle_ + static_cast<std::uint64_t>(cost);
          break;
        }
      }
    }

    // Advance time: one cycle while issuing, else jump to the next event.
    std::uint64_t next = cycle_ + 1;
    if (!issued_any) {
      std::uint64_t wake = kNever;
      for (const auto& block : blocks_) {
        for (const auto& w : block->warps) {
          if (w->done || w->at_barrier) continue;
          wake = std::min(wake, std::max(w->ready, cycle_ + 1));
        }
      }
      for (const std::uint64_t b : sched_busy_) {
        if (b > cycle_) wake = std::min(wake, b);
      }
      BF_CHECK_MSG(wake != kNever,
                   "SM deadlock: no runnable warp and no pending event "
                   "(barrier mismatch in kernel '"
                       << kernel_.name() << "'?)");
      next = wake;
    }

    const std::uint64_t delta = next - cycle_;
    int resident_warps = 0;
    for (const auto& block : blocks_) resident_warps += block->live_warps;
    counters_->add(Event::kActiveCycles, static_cast<double>(delta));
    counters_->add(Event::kActiveWarpCycles,
                   static_cast<double>(delta) * resident_warps);
    counters_->add(Event::kIssueSlotsTotal,
                   static_cast<double>(delta) *
                       static_cast<double>(sched_busy_.size()) * dispatch);
    cycle_ = next;
  }

  WarpState* pick_warp(std::size_t sched) {
    auto& list = sched_warps_[sched];
    if (list.empty()) return nullptr;
    const std::size_t n = list.size();
    std::size_t& rr = sched_rr_[sched];
    for (std::size_t i = 0; i < n; ++i) {
      WarpState* w = list[(rr + i) % n];
      if (!w->done && !w->at_barrier && w->ready <= cycle_) {
        rr = (rr + i + 1) % n;
        return w;
      }
    }
    return nullptr;
  }

  // ---- instruction execution ----

  /// Execute the warp's next instruction; returns the issue slots it
  /// consumed on its scheduler (1 = single slot, free for dual issue).
  int issue(WarpState* warp) {
    const TraceRecord& in = warp->trace.instrs[warp->pc++];
    CounterSet& c = *counters_;
    c.add(Event::kInstExecuted, 1);
    c.add(Event::kThreadInstExecuted, popcount_mask(in.mask));

    int cost = 1;
    switch (in.op) {
      case Op::kIAlu:
      case Op::kFAlu:
      case Op::kSfu: {
        c.add(Event::kInstIssued, 1);
        if (in.op == Op::kFAlu) {
          c.add(Event::kFlopCount, popcount_mask(in.mask));
        }
        const int lat = (in.op == Op::kSfu) ? arch_.sfu_dep_latency
                                            : arch_.alu_dep_latency;
        cost = arch_.arith_issue_cycles();
        warp->ready = cycle_ + static_cast<std::uint64_t>(lat);
        break;
      }
      case Op::kBranch: {
        c.add(Event::kInstIssued, 1);
        c.add(Event::kBranch, 1);
        if (in.divergent) c.add(Event::kDivergentBranch, 1);
        cost = arch_.arith_issue_cycles();
        warp->ready =
            cycle_ + static_cast<std::uint64_t>(arch_.alu_dep_latency);
        break;
      }
      case Op::kSync: {
        c.add(Event::kInstIssued, 1);
        arrive_barrier(warp);
        return 1;  // barrier handling below decides warp completion
      }
      case Op::kLdShared:
      case Op::kStShared: {
        const int passes = in.passes;
        const int replays = passes - 1;
        c.add(Event::kInstIssued, passes);
        if (in.op == Op::kLdShared) {
          c.add(Event::kSharedLoad, 1);
          c.add(Event::kSharedLoadReplay, replays);
        } else {
          c.add(Event::kSharedStore, 1);
          c.add(Event::kSharedStoreReplay, replays);
        }
        c.add(Event::kSharedBankConflict, replays);
        cost = arch_.arith_issue_cycles() + replays;
        warp->ready =
            cycle_ +
            static_cast<std::uint64_t>(arch_.shared_latency + replays);
        break;
      }
      case Op::kAtomicShared: {
        // Atomics serialise over both bank conflicts and same-address
        // collisions; every extra pass is a replayed issue slot.
        const int passes = in.passes;
        const int replays = passes - 1;
        c.add(Event::kInstIssued, passes);
        c.add(Event::kSharedStore, 1);  // nvprof counts atomics as stores
        c.add(Event::kSharedStoreReplay, replays);
        c.add(Event::kSharedBankConflict, replays);
        cost = arch_.arith_issue_cycles() + replays;
        warp->ready =
            cycle_ +
            static_cast<std::uint64_t>(arch_.shared_latency + 2 * replays);
        break;
      }
      case Op::kLdGlobal:
        cost = execute_global_load(warp, in);
        break;
      case Op::kStGlobal:
        cost = execute_global_store(warp, in);
        break;
    }

    completion_cycle_ = std::max(completion_cycle_, warp->ready);
    if (warp->pc >= warp->trace.size()) {
      finish_warp(warp);
    }
    return cost;
  }

  int execute_global_load(WarpState* warp, const TraceRecord& in) {
    CounterSet& c = *counters_;
    c.add(Event::kGldRequest, 1);
    c.add(Event::kGlobalLoadBytesRequested,
          static_cast<double>(popcount_mask(in.mask)) * in.access_bytes);

    const bool via_l1 = arch_.l1_caches_global_loads;
    const int seg_bytes =
        via_l1 ? arch_.l1_transaction_bytes : arch_.l2_transaction_bytes;
    const int ntrans = in.seg_count;
    c.add(Event::kGlobalLoadTransaction, ntrans);

    int worst_latency = 0;
    for (const std::uint64_t seg : segments_of(warp, in)) {
      int lat;
      if (via_l1) {
        const auto l1r = l1_.access(seg, /*write=*/false);
        if (l1r.hit) {
          c.add(Event::kL1GlobalLoadHit, 1);
          lat = arch_.l1_latency;
        } else {
          c.add(Event::kL1GlobalLoadMiss, 1);
          c.add(Event::kL2ReadTransactions,
                seg_bytes / arch_.l2_transaction_bytes);
          lat = l2_read(seg, seg_bytes);
        }
      } else {
        c.add(Event::kL2ReadTransactions, 1);
        lat = l2_read(seg, seg_bytes);
      }
      worst_latency = std::max(worst_latency, lat);
    }

    const int replays = std::max(0, ntrans - 1);
    c.add(Event::kInstIssued, 1 + replays);
    warp->ready =
        cycle_ + static_cast<std::uint64_t>(worst_latency + replays);
    return arch_.arith_issue_cycles() + replays;
  }

  /// One read reaching L2; returns the latency of the worst level touched.
  int l2_read(std::uint64_t addr, int fill_bytes) {
    const auto r = l2_.access(addr, /*write=*/false);
    if (r.writeback) {
      counters_->add(Event::kDramWriteTransactions,
                     l2_.line_bytes() / arch_.l2_transaction_bytes);
    }
    if (r.hit) {
      counters_->add(Event::kL2ReadHit, 1);
      return arch_.l2_latency;
    }
    counters_->add(Event::kL2ReadMiss, 1);
    counters_->add(Event::kDramReadTransactions,
                   std::max(1, fill_bytes / arch_.l2_transaction_bytes));
    return arch_.dram_latency;
  }

  int execute_global_store(WarpState* warp, const TraceRecord& in) {
    CounterSet& c = *counters_;
    c.add(Event::kGstRequest, 1);
    c.add(Event::kGlobalStoreBytesRequested,
          static_cast<double>(popcount_mask(in.mask)) * in.access_bytes);

    // Stores bypass L1 (Fermi is write-through-no-allocate; Kepler has no
    // L1 global path); the sink coalesced them at L2 segment granularity.
    const int ntrans = in.seg_count;
    c.add(Event::kGlobalStoreTransaction, ntrans);
    c.add(Event::kL2WriteTransactions, ntrans);
    for (const std::uint64_t seg : segments_of(warp, in)) {
      const auto r = l2_.access(seg, /*write=*/true);
      if (r.writeback) {
        c.add(Event::kDramWriteTransactions,
              l2_.line_bytes() / arch_.l2_transaction_bytes);
      }
    }

    const int replays = std::max(0, ntrans - 1);
    c.add(Event::kInstIssued, 1 + replays);
    // Stores retire through the write buffer: the warp only waits for
    // issue serialisation, not for DRAM.
    warp->ready =
        cycle_ + static_cast<std::uint64_t>(arch_.alu_dep_latency + replays);
    return arch_.arith_issue_cycles() + replays;
  }

  static std::span<const std::uint64_t> segments_of(const WarpState* warp,
                                                    const TraceRecord& in) {
    return {warp->trace.segments.data() + in.seg_begin, in.seg_count};
  }

  // ---- barriers / warp completion ----
  void arrive_barrier(WarpState* warp) {
    BlockCtx& block = *blocks_[static_cast<std::size_t>(warp->block_slot)];
    warp->at_barrier = true;
    ++block.at_barrier;
    maybe_release_barrier(block);
  }

  void maybe_release_barrier(BlockCtx& block) {
    if (block.live_warps == 0) return;
    if (block.at_barrier < block.live_warps) return;
    // Clear the barrier state before finishing warps: finish_warp can
    // re-enter this function and must observe a consistent block.
    std::vector<WarpState*> released;
    released.reserve(block.warps.size());
    for (auto& w : block.warps) {
      if (w->at_barrier) {
        w->at_barrier = false;
        released.push_back(w.get());
      }
    }
    block.at_barrier = 0;
    for (WarpState* w : released) {
      w->ready = cycle_ + static_cast<std::uint64_t>(arch_.sync_latency);
      if (w->pc >= w->trace.size()) {
        finish_warp(w);
      }
    }
  }

  void finish_warp(WarpState* warp) {
    if (warp->done) return;
    warp->done = true;
    BlockCtx& block = *blocks_[static_cast<std::size_t>(warp->block_slot)];
    --block.live_warps;
    // Scheduler lists are cleaned on the next settle(); pick_warp already
    // skips done warps.
    maybe_release_barrier(block);
  }

  std::pmr::memory_resource* memory_;  // caches and warp traces
  const ArchSpec& arch_;
  const TraceKernel& kernel_;
  const LaunchGeometry& geom_;
  const int max_resident_;
  std::vector<int> queue_;
  std::size_t next_in_queue_ = 0;

  Cache l1_;
  Cache l2_;
  std::vector<std::unique_ptr<BlockCtx>> blocks_;
  std::vector<std::unique_ptr<WarpState>> spare_warps_;  // retired, reusable
  std::vector<std::uint64_t> sched_busy_;
  std::vector<std::size_t> sched_rr_;
  std::vector<std::vector<WarpState*>> sched_warps_;
  std::uint64_t warp_admit_counter_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t completion_cycle_ = 0;
  CounterSet* counters_ = nullptr;
};

}  // namespace

void set_counter_validator(CounterValidator validator) {
  validator_slot() = std::move(validator);
}

const CounterValidator& counter_validator() { return validator_slot(); }

RunResult Device::run(const TraceKernel& kernel, const RunOptions& opts) const {
  const LaunchGeometry geom = kernel.geometry();
  BF_CHECK_MSG(geom.num_blocks() >= 1, "empty grid");

  RunResult result;
  result.occupancy = compute_occupancy(arch_, geom);
  result.blocks_total = geom.num_blocks();

  // Choose the sampled block set: everything when the grid is small,
  // otherwise an even stride so boundary blocks stay represented, rounded
  // so each SM receives at least two full occupancy waves.
  const std::int64_t total = result.blocks_total;
  std::int64_t want = total;
  if (opts.max_sampled_blocks > 0 && total > opts.max_sampled_blocks) {
    const std::int64_t min_per_sm = 2LL * result.occupancy.blocks_per_sm;
    want = std::max<std::int64_t>(opts.max_sampled_blocks,
                                  min_per_sm * arch_.sm_count);
    want = std::min(want, total);
  }
  std::vector<int> sampled;
  sampled.reserve(static_cast<std::size_t>(want));
  for (std::int64_t i = 0; i < want; ++i) {
    sampled.push_back(static_cast<int>(i * total / want));
  }
  result.blocks_simulated = want;
  result.sample_scale =
      static_cast<double>(total) / static_cast<double>(want);

  // Distribute sampled blocks round-robin across SMs (GigaThread-style).
  std::vector<std::vector<int>> per_sm(
      static_cast<std::size_t>(arch_.sm_count));
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    per_sm[i % static_cast<std::size_t>(arch_.sm_count)].push_back(
        sampled[i]);
  }

  // SMs share nothing (private L1 and L2 slice), so they run in parallel,
  // each into its own counters. Every event is a sum of integer-valued
  // adds far below 2^53, so merging in SM order gives exactly the sums a
  // single serial pass would. Caches and traces come from launch-scoped
  // pages, so the pool threads keep no memory once the launch returns;
  // the monotonic layer maps them in a few geometrically growing chunks.
  PageResource pages;
  std::pmr::monotonic_buffer_resource chunks(256 * 1024, &pages);
  std::pmr::synchronized_pool_resource sm_memory(sm_pool_options(), &chunks);
  std::vector<CounterSet> sm_counters(per_sm.size());
  std::vector<std::uint64_t> sm_cycles(per_sm.size(), 0);
  ThreadPool::global().parallel_for(0, per_sm.size(), [&](std::size_t sm) {
    if (per_sm[sm].empty()) return;
    SmSim sim(arch_, kernel, geom, result.occupancy.blocks_per_sm,
              std::move(per_sm[sm]), &sm_memory);
    sm_cycles[sm] = sim.run(sm_counters[sm]);
  });
  std::uint64_t max_cycles = 0;
  for (std::size_t sm = 0; sm < sm_counters.size(); ++sm) {
    result.counters.accumulate(sm_counters[sm]);
    max_cycles = std::max(max_cycles, sm_cycles[sm]);
  }

  result.counters.set(Event::kElapsedCycles,
                      static_cast<double>(max_cycles));
  result.counters.scale(result.sample_scale);

  // DRAM bandwidth roofline on top of the latency model.
  const double latency_time_s =
      result.counters.get(Event::kElapsedCycles) / (arch_.clock_ghz * 1e9);
  const double dram_bytes =
      (result.counters.get(Event::kDramReadTransactions) +
       result.counters.get(Event::kDramWriteTransactions)) *
      arch_.l2_transaction_bytes;
  const double bw_time_s = dram_bytes / (arch_.mem_bandwidth_gbs * 1e9);
  double time_s = latency_time_s;
  if (bw_time_s > time_s) {
    time_s = bw_time_s;
    result.bandwidth_bound = true;
    result.counters.set(Event::kElapsedCycles,
                        time_s * arch_.clock_ghz * 1e9);
  }
  result.time_ms = time_s * 1e3;

  if (opts.validate_counters || validation_forced_by_env()) {
    const CounterValidator& validate = counter_validator();
    if (validate) validate(result.counters, arch_);
  }
  return result;
}

void AggregateResult::add(const RunResult& r, double weight) {
  CounterSet scaled = r.counters;
  scaled.scale(weight);
  counters.accumulate(scaled);
  time_ms += r.time_ms * weight;
  const double occ =
      r.counters.get(Event::kActiveCycles) > 0
          ? r.counters.get(Event::kActiveWarpCycles) /
                r.counters.get(Event::kActiveCycles)
          : 0.0;
  occupancy_weighted += occ * r.time_ms * weight;
  launches += 1;
}

}  // namespace bf::gpusim
