#include "src/service/server.hpp"

#include <poll.h>
#include <pthread.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"

namespace tydi::service {

using support::Status;
using support::StatusCode;

namespace {

Status io_error(const std::string& what) {
  return Status::error(StatusCode::kIoError, "service",
                       what + ": " + std::strerror(errno));
}

/// Writes the whole buffer, retrying on EINTR / short writes.
/// MSG_NOSIGNAL: a peer that hung up yields EPIPE (false) instead of a
/// process-killing SIGPIPE — replying to a dead client is an expected
/// event for a daemon, not a crash.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Sends a cached reply frame straight from its memfd. sendfile has no
/// MSG_NOSIGNAL: the connection thread blocks SIGPIPE, so a dead peer
/// yields EPIPE here too.
bool send_frame(int fd, const ReplyFrame& frame) {
  off_t offset = 0;
  while (static_cast<std::size_t>(offset) < frame.size()) {
    const std::size_t left = frame.size() - static_cast<std::size_t>(offset);
    const ssize_t n = ::sendfile(fd, frame.fd(), &offset, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
  }
  return true;
}

/// Writes one response frame (header line, payload, newline): a cached
/// frame with sendfile, anything else with one gathering send per pass, so
/// a large payload is never copied into a serialized frame first.
bool write_response(int fd, const Response& response) {
  if (response.frame != nullptr) return send_frame(fd, *response.frame);
  const std::string header = response.header() + "\n";
  const std::string& payload = response.payload();
  char newline = '\n';
  iovec parts[3] = {{const_cast<char*>(header.data()), header.size()},
                    {const_cast<char*>(payload.data()), payload.size()},
                    {&newline, 1}};
  iovec* next = parts;
  std::size_t left = 3;
  while (left > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = left;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Skip the fully written parts, then advance into a partial one.
    while (left > 0 && static_cast<std::size_t>(n) >= next->iov_len) {
      n -= static_cast<ssize_t>(next->iov_len);
      ++next;
      --left;
    }
    if (left > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + n;
      next->iov_len -= static_cast<std::size_t>(n);
    }
  }
  return true;
}

/// Binds an AF_UNIX stream socket at `path` (unlinking any stale file).
int bind_listener(const std::string& path, int backlog, Status& status) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    status = Status::error(StatusCode::kInvalidArgument, "service",
                           "socket path too long: " + path);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    status = io_error("socket");
    return -1;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    status = io_error("bind " + path);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) < 0) {
    status = io_error("listen " + path);
    ::close(fd);
    return -1;
  }
  status = Status::ok();
  return fd;
}

int connect_client(const std::string& path, Status& status) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    status = Status::error(StatusCode::kInvalidArgument, "service",
                           "socket path too long: " + path);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    status = io_error("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    status = io_error("connect " + path);
    ::close(fd);
    return -1;
  }
  status = Status::ok();
  return fd;
}

/// Open connection fds, so the drain path can SHUT_RD all of them (stop
/// reading further request lines while in-flight replies still flush).
class ConnectionTracker {
 public:
  void add(int fd) {
    std::lock_guard lock(mu_);
    fds_.insert(fd);
  }
  void remove(int fd) {
    std::lock_guard lock(mu_);
    fds_.erase(fd);
  }
  [[nodiscard]] std::size_t count() const {
    std::lock_guard lock(mu_);
    return fds_.size();
  }
  void shutdown_reads() {
    std::lock_guard lock(mu_);
    for (int fd : fds_) ::shutdown(fd, SHUT_RD);
  }

 private:
  mutable std::mutex mu_;
  std::set<int> fds_;
};

/// True when the peer has closed its end. The signal is POLLHUP, not a
/// zero-byte read: the drain's own SHUT_RD makes our end read EOF too (and
/// poll POLLIN|POLLRDHUP), but only the peer's close shuts both directions,
/// which is what POLLHUP reports.
bool peer_disconnected(int fd) {
  pollfd p{fd, 0, 0};
  return ::poll(&p, 1, 0) > 0 && (p.revents & POLLHUP) != 0;
}

/// Per-connection loop: one request line in, one response frame out, until
/// EOF or a SHUTDOWN request. Buffered reads — a client may pipeline
/// several lines into one packet. While a submitted request is pending,
/// the connection thread polls the peer; a disconnect cancels the request
/// so the worker pool never finishes work for a dead client.
void serve_connection(int fd, CompileService& service,
                      std::atomic<bool>& shutdown, int listen_fd,
                      ConnectionTracker& tracker) {
  static obs::Counter& reply_disconnects =
      obs::MetricsRegistry::global().counter("tydi.service.reply_disconnects");
  static obs::Histogram& request_cpu =
      obs::MetricsRegistry::global().histogram("tydi.service.request_cpu_ms");
  // Replies to a dead peer must fail with EPIPE, not kill the daemon; the
  // gathering send says so with MSG_NOSIGNAL, sendfile cannot.
  sigset_t sigpipe;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  ::pthread_sigmask(SIG_BLOCK, &sigpipe, nullptr);
  std::string buffer;
  char chunk[4096];
  for (;;) {
    std::size_t eol;
    while ((eol = buffer.find('\n')) == std::string::npos) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        tracker.remove(fd);
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer.substr(0, eol);
    buffer.erase(0, eol + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();

    PendingRequest pending = service.submit(line);
    while (!pending.wait_for(25.0)) {
      if (peer_disconnected(fd)) pending.cancel();
    }
    Response response = pending.take();
    bool written = false;
    {
      support::PhaseTimings stages;
      obs::PhaseTimer t(stages, "service", "reply");
      written = write_response(fd, response);
    }
    // A request answered at admission ran on this thread from submit to
    // here: its thread CPU, clock reads included.
    const double cpu0 = pending.admission_cpu_ms();
    if (written && cpu0 >= 0.0) {
      request_cpu.observe(obs::thread_cpu_ms() - cpu0);
    }
    if (!written) {
      ++reply_disconnects;
      tracker.remove(fd);
      ::close(fd);
      return;
    }
    if (response.shutdown) {
      // Stop the accept loop: mark shutdown, then poke the listener awake
      // by shutting it down (accept() returns with an error immediately).
      shutdown.store(true, std::memory_order_release);
      ::shutdown(listen_fd, SHUT_RDWR);
      tracker.remove(fd);
      ::close(fd);
      return;
    }
  }
}

// Signal plumbing: the handler may only touch lock-free state and call
// async-signal-safe functions. Lock-free atomics are both
// async-signal-safe AND visible across threads — the handler can run on
// any thread while serve() reads the flag from another. shutdown(2) on
// the listener wakes the blocking accept() so the serve loop notices the
// flag promptly.
std::atomic<int> g_listen_fd{-1};
std::atomic<int> g_signal{0};

void handle_stop_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  const int fd = g_listen_fd.load(std::memory_order_relaxed);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

/// Installs SIGINT/SIGTERM handlers for the lifetime of one serve() and
/// restores the previous handlers on destruction.
class ScopedSignalHandlers {
 public:
  explicit ScopedSignalHandlers(int listen_fd) {
    g_signal = 0;
    g_listen_fd.store(listen_fd, std::memory_order_relaxed);
    struct sigaction action{};
    action.sa_handler = handle_stop_signal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedSignalHandlers() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    g_listen_fd.store(-1, std::memory_order_relaxed);
  }

 private:
  struct sigaction old_int_{};
  struct sigaction old_term_{};
};

}  // namespace

Status serve(CompileService& service, const ServerConfig& config) {
  Status status;
  const int listen_fd =
      bind_listener(config.socket_path, config.backlog, status);
  if (listen_fd < 0) return status;

  std::optional<ScopedSignalHandlers> signals;
  if (config.handle_signals) signals.emplace(listen_fd);

  std::atomic<bool> shutdown{false};
  ConnectionTracker tracker;
  std::vector<std::thread> connections;
  std::mutex connections_mu;
  static obs::Gauge& connections_gauge =
      obs::MetricsRegistry::global().gauge("tydi.service.connections");

  while (!shutdown.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && g_signal == 0) continue;
      // A shutdown request or signal closes the listener under us;
      // anything else is a real transport failure.
      if (shutdown.load(std::memory_order_acquire) || g_signal != 0) break;
      status = io_error("accept");
      break;
    }
    if (config.max_connections > 0 &&
        tracker.count() >= config.max_connections) {
      // Shed at the transport: one kUnavailable frame (with retry-after),
      // then close. Shares the service's shed counter and taxonomy.
      const Response shed = service.shed_response(
          "connection limit (" + std::to_string(config.max_connections) +
          ") reached");
      write_response(fd, shed);
      ::close(fd);
      continue;
    }
    tracker.add(fd);
    connections_gauge.set(static_cast<double>(tracker.count()));
    std::lock_guard lock(connections_mu);
    connections.emplace_back([fd, &service, &shutdown, listen_fd,
                              &tracker]() {
      serve_connection(fd, service, shutdown, listen_fd, tracker);
    });
  }

  // One drain path for SHUTDOWN, signals, and fatal accept errors: stop
  // admitting, stop reading new request lines, finish (or cancel at the
  // drain deadline) what was already accepted, then tear down.
  static obs::Counter& drains =
      obs::MetricsRegistry::global().counter("tydi.service.drains");
  ++drains;
  service.begin_drain();
  tracker.shutdown_reads();
  service.drain();
  for (std::thread& t : connections) t.join();
  connections_gauge.set(0.0);
  ::close(listen_fd);
  ::unlink(config.socket_path.c_str());
  if (g_signal != 0) return Status::ok();
  return status;
}

Status request(const std::string& socket_path, const std::string& line,
               Response& out) {
  Status status;
  const int fd = connect_client(socket_path, status);
  if (fd < 0) return status;
  // A failed write (EPIPE) does not necessarily mean no response: a
  // transport-level shed writes one kUnavailable frame and closes without
  // ever reading the request line. Record the error but still try to read
  // a frame; report the write failure only if none arrives.
  Status write_status = Status::ok();
  if (!write_all(fd, line + "\n")) {
    write_status = io_error("write " + socket_path);
  }
  // Read until the full frame is parseable (header tells us the payload
  // length) or the peer closes early.
  std::string wire;
  char chunk[4096];
  for (;;) {
    if (parse_response(wire, out)) {
      ::close(fd);
      return Status::ok();
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      status = io_error("read " + socket_path);
      ::close(fd);
      return status;
    }
    if (n == 0) {
      ::close(fd);
      if (!write_status.is_ok()) return write_status;
      return Status::error(StatusCode::kCorruptData, "service",
                           "connection closed mid-response");
    }
    wire.append(chunk, static_cast<std::size_t>(n));
  }
}

Status request_with_retry(const std::string& socket_path,
                          const std::string& line,
                          const support::RetryPolicy& policy, Response& out,
                          int* attempts_out) {
  support::Retry retry(policy);
  for (;;) {
    const int attempt = retry.next_attempt();
    const std::string attempt_line =
        attempt > 1 ? "ATTEMPT " + std::to_string(attempt) + " " + line
                    : line;
    Response response;
    const Status transport = request(socket_path, attempt_line, response);
    const bool shed = transport.is_ok() &&
                      response.status.code() == StatusCode::kUnavailable;
    if (transport.is_ok() && !shed) {
      out = std::move(response);
      if (attempts_out != nullptr) *attempts_out = attempt;
      return transport;
    }
    const double hint = shed ? response.retry_after_ms : 0.0;
    double delay_ms = 0.0;
    if (!retry.next_delay_ms(hint, delay_ms)) {
      if (attempts_out != nullptr) *attempts_out = retry.attempts();
      if (!transport.is_ok()) return transport;
      out = std::move(response);  // the final shed, exit code 12
      return Status::ok();
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
}

}  // namespace tydi::service
