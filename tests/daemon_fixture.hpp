// Test fixture shared by the socket tests of the compile service: a daemon
// served on a temp AF_UNIX socket by a thread of the test process, and a
// raw client that reads exact reply frames.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "src/service/server.hpp"
#include "src/service/service.hpp"

namespace tydi {

/// A CompileService served on a fresh AF_UNIX socket by a thread of this
/// process; SHUTDOWN and join on destruction.
struct TestDaemon {
  explicit TestDaemon(service::ServiceConfig svc_config,
                      std::size_t max_connections = 0,
                      bool handle_signals = false)
      : service(svc_config) {
    config.socket_path =
        "/tmp/tydid_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(++instance_counter()) + ".sock";
    config.max_connections = max_connections;
    config.handle_signals = handle_signals;
    thread = std::thread([this]() {
      status = service::serve(service, config);
    });
    service::Response ping;
    support::Status up;
    for (int attempt = 0; attempt < 400; ++attempt) {
      up = service::request(config.socket_path, "PING", ping);
      if (up.is_ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(up.is_ok()) << up.render();
  }

  ~TestDaemon() {
    if (thread.joinable()) {
      // SHUTDOWN itself can be shed by the connection limit while a
      // just-finished connection still occupies its slot — retry until a
      // served response confirms the drain began.
      for (int attempt = 0; attempt < 400; ++attempt) {
        service::Response bye;
        const support::Status s =
            service::request(config.socket_path, "SHUTDOWN", bye);
        if (s.is_ok() && bye.ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      thread.join();
    }
  }

  static int& instance_counter() {
    static int counter = 0;
    return counter;
  }

  service::CompileService service;
  service::ServerConfig config;
  support::Status status;
  std::thread thread;
};

/// A raw AF_UNIX client connection to `path`; -1 on failure.
inline int connect_raw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline bool write_line(int fd, const std::string& line) {
  const std::string text = line + "\n";
  return ::write(fd, text.data(), text.size()) ==
         static_cast<ssize_t>(text.size());
}

/// Reads exactly `n` bytes (fewer only if the peer closes first).
inline std::string read_bytes(int fd, std::size_t n) {
  std::string out(n, '\0');
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out.data() + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  out.resize(got);
  return out;
}

/// Reads one header line, newline included, a byte at a time so nothing
/// past it leaves the socket.
inline std::string read_header(int fd) {
  std::string line;
  while (line.empty() || line.back() != '\n') {
    const std::string c = read_bytes(fd, 1);
    if (c.empty()) break;
    line += c;
  }
  return line;
}

/// The payload_bytes field of a response header line.
inline std::size_t payload_size(const std::string& header) {
  std::istringstream fields(header);
  std::string verdict;
  int exit_code = 0;
  std::size_t bytes = 0;
  fields >> verdict >> exit_code >> bytes;
  return bytes;
}

/// One raw request/response exchange: the reply's exact wire bytes.
inline std::string exchange_raw(const std::string& path,
                                const std::string& line) {
  const int fd = connect_raw(path);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  EXPECT_TRUE(write_line(fd, line));
  std::string wire = read_header(fd);
  wire += read_bytes(fd, payload_size(wire) + 1);
  ::close(fd);
  return wire;
}

/// One request/response exchange on an open connection: the reply's exact
/// wire bytes ("" when the peer closed first).
inline std::string exchange_on(int fd, const std::string& line) {
  if (!write_line(fd, line)) return {};
  std::string wire = read_header(fd);
  if (wire.empty()) return {};
  wire += read_bytes(fd, payload_size(wire) + 1);
  return wire;
}

}  // namespace tydi
