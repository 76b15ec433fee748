#include "client.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <fstream>
#include <limits>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/error.hpp"
#include "stats.hpp"

namespace bf::perfbench {

// ---- server process ----

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& log_path) {
  std::vector<std::string> argv_s;
  argv_s.push_back(binary);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_ = ::fork();
  BF_CHECK_MSG(pid_ >= 0, "fork failed: " << std::strerror(errno));
  if (pid_ == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  pid_t done = 0;
  for (int i = 0; i < 500 && done == 0; ++i) {
    done = ::waitpid(pid_, &status, WNOHANG);
    if (done == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
}

double ServerProcess::cpu_us() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(text.substr(paren + 1));
  std::string field;
  double ticks = 0.0;
  for (int f = 3; f <= 15 && fields >> field; ++f) {
    if (f >= 14) ticks += std::stod(field);
  }
  return ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  return vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status");
}

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int connect_unix(const std::string& path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  BF_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "socket path too long: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    BF_CHECK_MSG(fd >= 0, "socket failed: " << std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      return fd;
    }
    ::close(fd);
    if (now_ns() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---- open-loop client ----

/// A phase gives up on replies that have not arrived this long after
/// the last one did.
constexpr std::int64_t kReplyTimeoutNs = 5'000'000'000;

std::vector<double> PhaseResult::latency_by_request() const {
  std::vector<double> out(sent, std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < index.size(); ++k) out[index[k]] = latency_ms[k];
  return out;
}

struct OpenLoopClient::Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  /// Requests sent on this connection and not yet answered, in order
  /// (replies come back in request order per connection).
  std::deque<std::pair<std::size_t, std::int64_t>> pending;  // (i, due)
};

OpenLoopClient::OpenLoopClient(const std::string& path,
                               std::size_t connections)
    : path_(path) {
  for (std::size_t i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>());
  }
  reconnect();
}

OpenLoopClient::~OpenLoopClient() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
}

void OpenLoopClient::reconnect() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
    *c = Conn{};
    c->fd = connect_unix(path_, 10000);
    BF_CHECK_MSG(c->fd >= 0, "cannot connect to " << path_);
  }
}

PhaseResult OpenLoopClient::run(const std::vector<std::string>& lines,
                                const PhaseSpec& spec) {
  BF_CHECK_MSG(!lines.empty(), "no request lines");
  PhaseResult res;
  res.index.reserve(spec.count);
  res.replies.reserve(spec.count);
  res.latency_ms.reserve(spec.count);
  res.late_ms.reserve(spec.count);
  const bool paced = spec.rate_qps > 0.0;
  const std::size_t n_conns = conns_.size();
  // Paced phases leave 1 ms before the first due time.
  const std::int64_t start = now_ns() + (paced ? 1000000 : 0);
  const auto due_of = [&](std::size_t i) {
    return start + std::llround(static_cast<double>(i) * 1e9 / spec.rate_qps);
  };
  std::size_t limit = spec.count;  // lowered when the phase is abandoned
  std::size_t next = 0;
  std::size_t inflight = 0;
  std::int64_t last_progress = now_ns();
  std::int64_t last_reply = start;
  std::vector<pollfd> fds(n_conns);

  while (next < limit || inflight > 0) {
    std::int64_t now = now_ns();
    // Queue everything that is due (paced) or fits the window (unpaced).
    while (next < limit) {
      std::int64_t due = now;
      if (paced) {
        due = due_of(next);
        if (due > now) break;
      } else if (inflight >= spec.max_inflight) {
        break;
      }
      Conn& c = *conns_[next % n_conns];
      c.out += lines[(spec.first + next) % lines.size()];
      c.out += '\n';
      c.pending.emplace_back(next, due);
      res.late_ms.push_back(1e-6 * static_cast<double>(now - due));
      ++next;
      ++inflight;
      ++res.sent;
      res.inflight_max = std::max(res.inflight_max, inflight);
      if (paced && inflight > spec.max_inflight) {
        res.abandoned = true;  // backlog is growing: stop offering load
        limit = next;
      }
    }
    // Flush what the sockets take without blocking.
    for (auto& cp : conns_) {
      Conn& c = *cp;
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    // Wait for replies until the next request is due.
    std::int64_t wait_ns = 10000000;
    if (paced && next < limit) {
      wait_ns = std::max<std::int64_t>(0, due_of(next) - now_ns());
    }
    for (std::size_t i = 0; i < n_conns; ++i) {
      fds[i].fd = conns_[i]->fd;
      fds[i].events = POLLIN;
      if (!conns_[i]->out.empty()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
    ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    now = now_ns();
    if (ready > 0) {
      for (std::size_t i = 0; i < n_conns; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = *conns_[i];
        char buf[65536];
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
          if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          break;
        }
        std::size_t pos = 0;
        for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos;
             pos = nl + 1) {
          if (c.pending.empty()) break;  // unsolicited line: ignored
          const auto [idx, due] = c.pending.front();
          c.pending.pop_front();
          res.index.push_back(idx);
          res.replies.push_back(c.in.substr(pos, nl - pos));
          res.latency_ms.push_back(1e-6 * static_cast<double>(now - due));
          --inflight;
          last_progress = now;
          last_reply = now;
        }
        c.in.erase(0, pos);
      }
    }
    if (inflight > 0 && next >= limit &&
        now - last_progress > kReplyTimeoutNs) {
      res.timed_out = true;
      break;
    }
  }
  res.elapsed_s = 1e-9 * static_cast<double>(last_reply - start);
  // A timed-out phase leaves replies in flight; fresh connections keep
  // later phases from reading them as their own.
  if (res.timed_out) reconnect();
  return res;
}

}  // namespace bf::perfbench
