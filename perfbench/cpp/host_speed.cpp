#include "host_speed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "stats.hpp"

namespace bf::perfbench {

namespace {

constexpr auto kTableEntries =
    static_cast<std::size_t>(kProbeTableMiB * 1024 * 1024 / 4);
constexpr int kChaseSteps = 50'000;
constexpr auto kInterval = std::chrono::milliseconds(100);

}  // namespace

double speed_over(const std::vector<Probe>& probes, std::int64_t t0_ns,
                  std::int64_t t1_ns, std::int64_t slack_ns) {
  if (probes.empty()) return 1.0;
  std::vector<double> in;
  for (const Probe& p : probes) {
    if (p.mid_ns >= t0_ns - slack_ns && p.mid_ns <= t1_ns + slack_ns) {
      in.push_back(p.seconds);
    }
  }
  if (in.empty()) {
    const std::int64_t mid = t0_ns + (t1_ns - t0_ns) / 2;
    const auto nearest = std::min_element(
        probes.begin(), probes.end(), [&](const Probe& a, const Probe& b) {
          return std::llabs(a.mid_ns - mid) < std::llabs(b.mid_ns - mid);
        });
    in.push_back(nearest->seconds);
  }
  return kReferenceProbeS / median(in);
}

HostSpeed::HostSpeed() : next_(kTableEntries) {
  // Sattolo's shuffle with a fixed LCG: one cycle through every entry,
  // so the chase never settles into a short, cached loop.
  for (std::size_t i = 0; i < next_.size(); ++i) {
    next_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t r = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    r = r * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(next_[i], next_[(r >> 33) % i]);
  }
  thread_ = std::thread([this] { loop(); });
}

HostSpeed::~HostSpeed() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void HostSpeed::loop() {
  std::uint32_t at = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < kChaseSteps; ++k) at = next_[at];
    const std::int64_t t1 = now_ns();
    lock.lock();
    sink_ = at;  // keeps the chase from being optimised away
    probes_.push_back({t0 + (t1 - t0) / 2, 1e-9 * double(t1 - t0)});
    wake_.wait_for(lock, kInterval, [this] { return stop_; });
  }
}

double HostSpeed::speed(std::int64_t t0_ns, std::int64_t t1_ns) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return speed_over(probes_, t0_ns, t1_ns);
}

double HostSpeed::median_probe_s() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> s;
  for (const Probe& p : probes_) s.push_back(p.seconds);
  return median(s);
}

}  // namespace bf::perfbench
