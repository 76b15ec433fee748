// Sweep driver: profile a workload across problem sizes (and optionally
// architectures) into an ml::Dataset ready for the statistical pipeline.
//
// This produces exactly the table the paper's modelling consumes: one row
// per run, one column per counter, plus the problem characteristics
// ("size"), optional machine characteristics (Table 2 columns, for
// hardware scaling) and the "time_ms" response.
//
// On real hardware the collection stage is the flaky one, so the driver
// carries a first-class failure policy: per-size retry with bounded
// exponential backoff, k-replicate collection with median aggregation and
// MAD outlier rejection, NaN cells for dropped counters, and a
// min_success_fraction partial-sweep gate. Every decision is recorded in
// a SweepReport. The defaults reproduce the classic strict single-run
// sweep bit for bit.
//
// A sweep simulates, then records. Every size is simulated once, as a
// task on ThreadPool::global() (largest size first), and its result or
// the exception its run threw lands in a slot of its own. A serial loop
// then turns the slots into rows in size order through
// Profiler::record: every attempt, retry, back-off, replicate, noise
// draw, fault draw and validation happens in the order a one-size-at-a-
// time sweep makes them, so datasets and reports are bit-identical with
// or without faults armed. Retries and replicates replay the one
// simulation of their size (Workload::run is deterministic).
#pragma once

#include <string>
#include <vector>

#include "gpusim/engine.hpp"
#include "ml/dataset.hpp"
#include "profiling/profiler.hpp"

namespace bf::profiling {

/// Column name of the response variable in sweep datasets.
inline constexpr const char* kTimeColumn = "time_ms";
/// Column name of the problem-characteristic column.
inline constexpr const char* kSizeColumn = "size";
/// Column name of the estimated board-power label (the alternative
/// response variable bf::power trains on).
inline constexpr const char* kPowerColumn = "power_avg_w";

struct SweepOptions {
  /// Inject the Table 2 machine characteristics (wsched, freq, smp, rco,
  /// mbw, regs, l2c) as extra columns — required for hardware scaling.
  bool machine_characteristics = false;
  ProfilerOptions profiler;

  // ---- failure policy (defaults = classic strict sweep) ----
  /// Profiled runs aggregated (median) into each row. 1 = use the single
  /// run verbatim; >= 3 enables outlier rejection.
  int replicates = 1;
  /// Attempts per replicate before it counts as failed (1 = no retry).
  int max_attempts = 3;
  /// First retry delay; doubles per attempt, capped at backoff_max_ms.
  /// 0 disables sleeping (the default, so tests stay fast).
  double backoff_initial_ms = 0.0;
  double backoff_max_ms = 50.0;
  /// Required fraction of sizes yielding at least one replicate; below
  /// it the sweep throws bf::Error instead of returning a partial
  /// dataset. 1.0 = any fully-failed size aborts (classic behaviour).
  double min_success_fraction = 1.0;
  /// Replicates whose time deviates from the median by more than this
  /// many (scaled) MADs are rejected before aggregation; <= 0 disables.
  double outlier_mad_threshold = 3.5;
};

/// Collection diary for one problem size.
struct SizeOutcome {
  double size = 0.0;
  int attempts = 0;            ///< total profiler invocations
  int replicates_ok = 0;
  int replicates_failed = 0;   ///< exhausted max_attempts
  int outliers_rejected = 0;   ///< replicates discarded by the MAD gate
  std::vector<std::string> errors;            ///< one per failed attempt
  std::vector<std::string> dropped_counters;  ///< NaN cells in the row
  bool ok = false;             ///< a row was produced for this size
};

/// What the sweep survived: per-size attempts/failures/drops plus
/// aggregate counts, carried into core::AnalysisOutcome.
struct SweepReport {
  std::vector<SizeOutcome> sizes;
  std::size_t sizes_ok = 0;
  std::size_t sizes_failed = 0;
  std::size_t total_attempts = 0;
  std::size_t retried_attempts = 0;  ///< attempts beyond the first
  std::size_t missing_cells = 0;     ///< NaN cells in the dataset

  bool degraded() const {
    return sizes_failed > 0 || missing_cells > 0 || retried_attempts > 0;
  }
  /// One-line summary, e.g. "38/40 sizes ok, 3 retries, 5 missing cells".
  std::string summary() const;
  /// Full rendering: summary plus one line per degraded size.
  std::string to_text() const;
};

/// Run `workload` across `sizes` on `device` under the failure policy in
/// `options`. All runs share the same counter schema (determined by the
/// architecture generation). When `report` is non-null it receives the
/// collection diary. Throws bf::Error when fewer than
/// `min_success_fraction` of the sizes produced data.
ml::Dataset sweep(const Workload& workload, const gpusim::Device& device,
                  const std::vector<double>& sizes,
                  const SweepOptions& options = {},
                  SweepReport* report = nullptr);

/// Log-spaced (base-2) problem sizes from `lo` to `hi` inclusive,
/// `count` of them, rounded to multiples of `multiple`. Duplicates
/// created by the rounding are removed, so the result may hold fewer
/// than `count` sizes (repeated sizes would double-weight rows in
/// training).
std::vector<double> log2_sizes(double lo, double hi, int count,
                               std::int64_t multiple = 1);

/// Linear sizes lo, lo+step, ..., hi (the paper's NW sweep: 64..8192
/// step 64).
std::vector<double> linear_sizes(double lo, double hi, double step);

}  // namespace bf::profiling
