// Open-loop NDJSON client for the serve workload, and the bf_serve
// child process it talks to.
//
// The client sends each request when it is due, whatever the replies
// are doing, over a fixed set of pipelined Unix-socket connections
// (request i goes to connection i % n). Latency is timed from the due
// time, so a stall in the server also charges the requests queued
// behind it; how late the sender itself ran is reported separately.
// A phase whose in-flight count passes its cap is abandoned: the backlog
// is growing, so the rate is above what the server sustains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace bf::perfbench {

/// A bf_serve process started with fork/exec and stopped (SIGTERM, then
/// SIGKILL after a grace period) and reaped in the destructor.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Stop and reap now (idempotent).
  void stop();
  /// utime + stime of the process so far, in microseconds.
  double cpu_us() const;
  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
};

/// Connect to a Unix socket, retrying until `timeout_ms`; -1 on failure.
int connect_unix(const std::string& path, int timeout_ms);

/// VmHWM (peak resident set, MiB) from a /proc/<pid>/status file.
double vm_hwm_mb(const std::string& status_path);

struct PhaseSpec {
  /// Request rate; 0 sends unpaced, as fast as the window allows.
  double rate_qps = 0.0;
  std::size_t count = 0;           ///< requests to send
  std::size_t first = 0;           ///< index of the first request line
  std::size_t max_inflight = 512;  ///< abandon the phase beyond this
};

struct PhaseResult {
  std::vector<std::size_t> index;    ///< request line of each completion
  std::vector<std::string> replies;  ///< reply line of each completion
  std::vector<double> latency_ms;    ///< reply time minus due time
  std::vector<double> late_ms;       ///< send time minus due time
  std::size_t sent = 0;
  std::size_t inflight_max = 0;
  bool abandoned = false;  ///< backlog passed max_inflight
  bool timed_out = false;  ///< replies still missing at the deadline
  double elapsed_s = 0.0;  ///< first due time to last reply
  /// Latency of each request in request order (missing replies read
  /// as infinitely late).
  std::vector<double> latency_by_request() const;
  double achieved_qps() const {
    return elapsed_s > 0 ? static_cast<double>(replies.size()) / elapsed_s
                         : 0.0;
  }
};

class OpenLoopClient {
 public:
  /// Opens `connections` connections to the socket at `path`.
  OpenLoopClient(const std::string& path, std::size_t connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Run one phase over `lines` (each without its newline; indices wrap
  /// around the list). With an unpaced spec the client keeps at most
  /// max_inflight requests outstanding instead of abandoning.
  PhaseResult run(const std::vector<std::string>& lines,
                  const PhaseSpec& spec);

 private:
  struct Conn;
  void reconnect();

  std::string path_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace bf::perfbench
