// The nvprof analogue: run an application on a (simulated) device, derive
// the nvprof-style metric set from the raw events, and return a named
// counter vector plus the measured execution time.
//
// This is the paper's data-collection stage (§4.2): "We perform data
// collection by running the application multiple times on the architecture
// of interest, with different problem characteristics … Performance
// counter data are collected using nvprof."
#pragma once

#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/engine.hpp"

namespace bf::profiling {

/// An application under study: named, and runnable for a given problem
/// size on a given device. Multi-launch applications aggregate internally.
/// `run` must be a pure, thread-safe function of device and size: the
/// sweep calls it concurrently for different sizes, and once per size
/// however many replicates and retries that size takes.
struct Workload {
  std::string name;
  std::function<gpusim::AggregateResult(const gpusim::Device&,
                                        double problem_size)>
      run;
};

/// One profiled run: the problem characteristics, every counter/metric
/// available on the architecture, and the measured time.
struct ProfileResult {
  std::string workload;
  std::string arch;
  std::map<std::string, double> problem;   ///< e.g. {"size": 1024}
  std::map<std::string, double> counters;  ///< nvprof counter -> value
  double time_ms = 0.0;
};

/// What one simulation of a workload produced: its result, or the
/// exception its run threw.
struct Simulation {
  gpusim::AggregateResult result;
  std::exception_ptr error;
};

/// Run `workload` at `problem_size` on `device`, capturing what it throws.
Simulation simulate(const Workload& workload, const gpusim::Device& device,
                    double problem_size);

struct ProfilerOptions {
  /// Multiplicative Gaussian noise applied to the measured time
  /// (run-to-run variation of a real GPU; nvprof counters themselves are
  /// nearly exact, so they receive `counter_noise_sd` only).
  double time_noise_sd = 0.02;
  double counter_noise_sd = 0.003;
  std::uint64_t seed = 1234;
  /// Validate every profiled metric set against the bf::check counter
  /// invariants (measured tolerance); throws bf::Error on violation.
  bool validate = false;
};

class Profiler {
 public:
  explicit Profiler(ProfilerOptions options = {});

  /// Profile one run of `workload` at `problem_size` on `device`.
  ProfileResult profile(const Workload& workload,
                        const gpusim::Device& device, double problem_size);

  /// Profile one run whose simulation already happened: `simulated` is
  /// what simulate(workload, device, problem_size) returned, and its
  /// error is rethrown where the run would have executed. Fault, noise
  /// and validation draws happen exactly as in profile(), so a simulation
  /// can back any number of profiled runs.
  ProfileResult record(const Workload& workload,
                       const gpusim::Device& device, double problem_size,
                       const Simulation& simulated);

  /// Derive the architecture's full nvprof metric set from raw events.
  /// Exposed for tests; `time_ms` must be the (noise-free) elapsed time.
  static std::map<std::string, double> derive_metrics(
      const gpusim::ArchSpec& arch, const gpusim::CounterSet& counters,
      double time_ms);

 private:
  ProfilerOptions options_;
  Rng rng_;
};

}  // namespace bf::profiling
