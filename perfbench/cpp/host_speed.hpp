// Host speed reference for the analysis workloads' gated timings.
//
// On a shared host the CPU and its last-level cache run slower while
// neighbours are busy: a fixed loop ran between 0.68 and 1.25 times its
// median speed in stretches of 2 to 10 s, and the same code measured 27%
// slower in one set of ten runs than in the set before it (README). So a
// background thread times a fixed probe, a pointer chase through an
// 8 MiB table, every 100 ms for the whole run. Each gated time is the
// wall time of its interval scaled by how fast the probe ran then:
// seconds at the speed where the probe takes kReferenceProbeS. The
// program's own work is untouched; a program that gets slower reads
// slower by the same share.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace bf::perfbench {

/// One timed probe: midpoint (steady clock, ns) and duration (s).
struct Probe {
  std::int64_t mid_ns = 0;
  double seconds = 0.0;
};

/// Size of the probe's table, resident for the whole run.
constexpr double kProbeTableMiB = 8.0;

/// The probe's duration on the reference machine when its host was
/// quiet (README, "Noise").
constexpr double kReferenceProbeS = 8.0e-3;

/// kReferenceProbeS over the median duration of the probes whose
/// midpoints fall in [t0_ns - slack_ns, t1_ns + slack_ns], or of the one
/// nearest to the interval when none does. 1 when there are no probes.
double speed_over(const std::vector<Probe>& probes, std::int64_t t0_ns,
                  std::int64_t t1_ns, std::int64_t slack_ns = 100'000'000);

class HostSpeed {
 public:
  HostSpeed();   ///< starts probing
  ~HostSpeed();  ///< stops probing and joins the thread
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// speed_over() the probes taken so far. Call after the interval has
  /// ended, so probes on both sides of it exist.
  double speed(std::int64_t t0_ns, std::int64_t t1_ns) const;

  /// Median probe duration over the run so far (s).
  double median_probe_s() const;

 private:
  void loop();

  std::vector<std::uint32_t> next_;  ///< one random cycle through the table
  mutable std::mutex mu_;            // guards probes_, sink_ and stop_
  std::condition_variable wake_;
  std::vector<Probe> probes_;
  std::uint32_t sink_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace bf::perfbench
