// FILE sources over the real socket: the daemon's source cache
// (src/service/source_cache.hpp) answers a request from the bytes it read
// earlier only while a source is unchanged and older than the racy-clean
// window. Each case ages its files past that window once, in the suite
// set-up (~2 s), warms the cache until a request is a source-cache hit, then
// changes a source the way an editor, a build tool or an operator would:
// a same-size rewrite with its mtime put back, a rename over the path, a
// symlink retarget of the file or of a directory component, a delete, a
// chmod 000, a directory in the file's place. Every reply must equal what a
// daemon without the cache sends for the bytes on disk at request time: the
// session-free compile of those bytes, or the read error reply. This binary
// also runs under TSan in CI (the concurrent writer case).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/service/source_cache.hpp"
#include "src/support/source.hpp"
#include "src/tpch/tpch.hpp"
#include "tests/daemon_fixture.hpp"

namespace tydi {
namespace {

namespace fs = std::filesystem;
using support::Status;

std::uint64_t source_counter(const char* name) {
  return obs::MetricsRegistry::global()
      .counter(std::string("tydi.service.source_cache.") + name)
      .value();
}

/// Counter deltas of the source cache since construction.
struct SourceCounts {
  std::uint64_t hits0 = source_counter("hits");
  std::uint64_t reads0 = source_counter("reads");
  std::uint64_t racy0 = source_counter("racy");
  [[nodiscard]] std::uint64_t hits() const {
    return source_counter("hits") - hits0;
  }
  [[nodiscard]] std::uint64_t reads() const {
    return source_counter("reads") - reads0;
  }
  [[nodiscard]] std::uint64_t racy() const {
    return source_counter("racy") - racy0;
  }
};

/// Q6 with `const qty_hi = <qty>;`: every version has the same size and
/// differs from the others in that one byte.
std::string q6_version(int qty) {
  std::string text(tpch::find_query("TPC-H 6")->source);
  const std::string from = "const qty_hi = 24;";
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  text.replace(at, from.size(), "const qty_hi = " + std::to_string(qty) + ";");
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string file_line(const std::vector<std::string>& paths) {
  std::string line = "FILE ";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) line += ',';
    line += paths[i];
  }
  return line + " q6_i vhdl";
}

/// What a daemon without a source cache answers for `paths` with the bytes
/// on disk now: the error reply of the first source it cannot read (the
/// service wraps read_file's status), else the session-free compile.
service::Response expected_reply(const std::vector<std::string>& paths) {
  service::Response r;
  std::vector<driver::NamedSource> sources;
  for (const std::string& path : paths) {
    driver::NamedSource& source = sources.emplace_back();
    source.name = path;
    const Status read = support::read_file(path, source.text);
    if (!read.is_ok()) {
      r.status = Status::error(read.code(), "service", read.message());
      r.set_payload(r.status.render() + "\n");
      return r;
    }
  }
  driver::CompileOptions options;
  options.top = "q6_i";
  driver::CompileResult result = driver::compile(sources, options);
  r.status = result.status();
  r.set_payload(result.success() ? result.vhdl_text : result.report());
  return r;
}

/// Sends the FILE request for `paths` over a fresh connection and checks
/// the reply against what is on disk now. Returns the reply.
service::Response expect_current(const TestDaemon& daemon,
                                 const std::vector<std::string>& paths) {
  const service::Response want = expected_reply(paths);
  service::Response got;
  const Status sent =
      service::request(daemon.config.socket_path, file_line(paths), got);
  EXPECT_TRUE(sent.is_ok()) << sent.render();
  EXPECT_EQ(got.status.exit_code(), want.status.exit_code());
  EXPECT_TRUE(got.payload() == want.payload())
      << "got: " << got.payload().substr(0, 200)
      << "\nwant: " << want.payload().substr(0, 200);
  return got;
}

/// The suite's files, written once and aged past the racy-clean window
/// before the first case runs. Each case owns one directory.
class SourceChanges : public ::testing::Test {
 protected:
  static std::string root() {
    return "/tmp/tydid_sources_" + std::to_string(::getpid());
  }
  static std::string dir(const std::string& name) {
    return root() + "/" + name;
  }

  static void SetUpTestSuite() {
    fs::remove_all(root());
    for (const char* name :
         {"aged", "utimens", "rename", "deleted", "chmod", "replaced",
          "fifo", "invalidate", "concurrent"}) {
      fs::create_directories(dir(name));
      write_file(dir(name) + "/fletcher.td", tpch::fletcher_source());
      write_file(dir(name) + "/q6.td", q6_version(24));
    }
    // q6.td -> a.td, retargeted to b.td.
    fs::create_directories(dir("symfile"));
    write_file(dir("symfile") + "/fletcher.td", tpch::fletcher_source());
    write_file(dir("symfile") + "/a.td", q6_version(24));
    write_file(dir("symfile") + "/b.td", q6_version(25));
    fs::create_symlink("a.td", dir("symfile") + "/q6.td");
    // cur -> v1, retargeted to v2; the request names cur/q6.td.
    for (const char* version : {"v1", "v2"}) {
      fs::create_directories(dir("symdir") + "/" + version);
    }
    write_file(dir("symdir") + "/fletcher.td", tpch::fletcher_source());
    write_file(dir("symdir") + "/v1/q6.td", q6_version(24));
    write_file(dir("symdir") + "/v2/q6.td", q6_version(25));
    fs::create_directory_symlink("v1", dir("symdir") + "/cur");

    // Wait out the racy-clean window once: the cache keeps a read only when
    // the file's mtime and ctime lie kRacyWindow before the clock taken at
    // its open.
    const auto window = std::chrono::duration_cast<std::chrono::milliseconds>(
        service::SourceCache::kRacyWindow);
    std::this_thread::sleep_for(window + std::chrono::milliseconds(50));
  }

  static void TearDownTestSuite() {
    ::chmod((dir("chmod") + "/q6.td").c_str(), 0644);
    fs::remove_all(root());
  }

  /// The two sources of a case directory, fletcher first.
  static std::vector<std::string> paths(const std::string& name,
                                        const std::string& query = "q6.td") {
    return {dir(name) + "/fletcher.td", dir(name) + "/" + query};
  }

  /// Two requests: the first reads both sources (they are older than the
  /// window, so it keeps them), the second is a source-cache hit for both.
  static void warm(const TestDaemon& daemon,
                   const std::vector<std::string>& sources) {
    SourceCounts counts;
    ASSERT_TRUE(expect_current(daemon, sources).ok());
    ASSERT_TRUE(expect_current(daemon, sources).ok());
    ASSERT_EQ(counts.reads(), 2u);
    ASSERT_EQ(counts.hits(), 2u);
    ASSERT_EQ(counts.racy(), 0u);
  }

  /// A source written less than the window ago is read on every request,
  /// never served from the cache: of the two sources only the untouched
  /// fletcher.td hits.
  static void expect_fresh_query_reread(
      const TestDaemon& daemon, const std::vector<std::string>& sources) {
    SourceCounts counts;
    ASSERT_TRUE(expect_current(daemon, sources).ok());
    EXPECT_EQ(counts.hits(), 1u);
    EXPECT_EQ(counts.reads(), 1u);
    EXPECT_EQ(counts.racy(), 1u);
  }

  TestDaemon daemon{service::ServiceConfig{}};
};

TEST_F(SourceChanges, AnAgedSourceIsServedFromTheCache) {
  const std::vector<std::string> sources = paths("aged");
  const std::uint64_t cpu0 = obs::MetricsRegistry::global()
                                 .histogram("tydi.service.request_cpu_ms")
                                 .count();
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  EXPECT_EQ(daemon.service.source_cache().entries(), 2u);
  const std::string fletcher = tpch::fletcher_source();
  EXPECT_EQ(daemon.service.source_cache().bytes(),
            fletcher.size() + q6_version(24).size());
  // The third request is the result cache's first hit, answered at
  // admission: the only one of the three with a thread-CPU observation,
  // made by the connection thread just after its reply write.
  SourceCounts counts;
  ASSERT_TRUE(expect_current(daemon, sources).ok());
  EXPECT_EQ(counts.hits(), 2u);
  EXPECT_EQ(counts.reads(), 0u);
  const obs::Histogram& cpu =
      obs::MetricsRegistry::global().histogram("tydi.service.request_cpu_ms");
  for (int i = 0; i < 2000 && cpu.count() == cpu0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(cpu.count(), cpu0 + 1);
  // HEALTH and STATS read the cache's counts from the registry.
  service::Response health;
  ASSERT_TRUE(
      service::request(daemon.config.socket_path, "HEALTH", health).is_ok());
  ASSERT_TRUE(obs::json_valid(health.payload())) << health.payload();
  const std::string needle = "\"source_cache_hits\":";
  const std::size_t at = health.payload().find(needle);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stoull(health.payload().substr(at + needle.size())),
            source_counter("hits"));
  service::Response stats;
  ASSERT_TRUE(
      service::request(daemon.config.socket_path, "STATS", stats).is_ok());
  EXPECT_NE(stats.payload().find("source_cache_bytes "), std::string::npos);
}

TEST_F(SourceChanges, SameSizeRewriteWithItsMtimePutBack) {
  const std::vector<std::string> sources = paths("utimens");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  const std::string before = expected_reply(sources).payload();
  struct stat old {};
  ASSERT_EQ(::stat(sources[1].c_str(), &old), 0);
  write_file(sources[1], q6_version(25));
  const timespec times[2] = {old.st_atim, old.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, sources[1].c_str(), times, 0), 0);
  struct stat now {};
  ASSERT_EQ(::stat(sources[1].c_str(), &now), 0);
  // Only ctime tells the rewrite apart.
  ASSERT_EQ(now.st_ino, old.st_ino);
  ASSERT_EQ(now.st_size, old.st_size);
  ASSERT_EQ(now.st_mtim.tv_sec, old.st_mtim.tv_sec);
  ASSERT_EQ(now.st_mtim.tv_nsec, old.st_mtim.tv_nsec);

  const service::Response after = expect_current(daemon, sources);
  EXPECT_TRUE(after.payload() != before);
  expect_fresh_query_reread(daemon, sources);
}

TEST_F(SourceChanges, RenameOverThePath) {
  const std::vector<std::string> sources = paths("rename");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  const std::string before = expected_reply(sources).payload();
  write_file(dir("rename") + "/q6.td.tmp", q6_version(26));
  ASSERT_EQ(::rename((dir("rename") + "/q6.td.tmp").c_str(),
                     sources[1].c_str()),
            0);
  const service::Response after = expect_current(daemon, sources);
  EXPECT_TRUE(after.payload() != before);
  expect_fresh_query_reread(daemon, sources);
}

TEST_F(SourceChanges, SymlinkRetargetOfTheFile) {
  const std::vector<std::string> sources = paths("symfile");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  const std::string before = expected_reply(sources).payload();
  const std::string link = sources[1];
  fs::create_symlink("b.td", link + ".tmp");
  ASSERT_EQ(::rename((link + ".tmp").c_str(), link.c_str()), 0);
  const service::Response after = expect_current(daemon, sources);
  EXPECT_TRUE(after.payload() != before);
}

TEST_F(SourceChanges, SymlinkRetargetOfADirectoryComponent) {
  const std::vector<std::string> sources = paths("symdir", "cur/q6.td");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  const std::string before = expected_reply(sources).payload();
  fs::create_directory_symlink("v2", dir("symdir") + "/cur.tmp");
  ASSERT_EQ(::rename((dir("symdir") + "/cur.tmp").c_str(),
                     (dir("symdir") + "/cur").c_str()),
            0);
  const service::Response after = expect_current(daemon, sources);
  EXPECT_TRUE(after.payload() != before);
}

TEST_F(SourceChanges, DeletedSourceFailsAsBefore) {
  const std::vector<std::string> sources = paths("deleted");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  ASSERT_EQ(::unlink(sources[1].c_str()), 0);
  const service::Response r = expect_current(daemon, sources);
  EXPECT_EQ(r.status.exit_code(), 3);
  // The failed read dropped the deleted file's entry.
  EXPECT_EQ(daemon.service.source_cache().entries(), 1u);
}

TEST_F(SourceChanges, UnreadableSourceAnswersAsBefore) {
  // Under root chmod 000 does not stop a read, so the reply is the compile;
  // otherwise it is the read error. Either way it is what the bytes (or
  // their absence) on disk say.
  const std::vector<std::string> sources = paths("chmod");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  ASSERT_EQ(::chmod(sources[1].c_str(), 0), 0);
  expect_current(daemon, sources);
}

TEST_F(SourceChanges, DirectoryInTheFilesPlaceFailsAsBefore) {
  const std::vector<std::string> sources = paths("replaced");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  ASSERT_EQ(::unlink(sources[1].c_str()), 0);
  ASSERT_EQ(::mkdir(sources[1].c_str(), 0755), 0);
  const service::Response r = expect_current(daemon, sources);
  EXPECT_EQ(r.status.exit_code(), 3);
}

TEST_F(SourceChanges, FifoInTheFilesPlaceFailsWithoutWedgingTheDaemon) {
  // Opening a FIFO that has no writer blocks, so the read must refuse it
  // as it refuses a directory: a blocked open would hold the connection
  // thread, and the daemon's teardown joins that thread.
  const std::vector<std::string> sources = paths("fifo");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  ASSERT_EQ(::unlink(sources[1].c_str()), 0);
  ASSERT_EQ(::mkfifo(sources[1].c_str(), 0644), 0);
  std::promise<service::Response> reply;
  std::future<service::Response> answered = reply.get_future();
  std::thread client([&] {
    service::Response r;
    const Status sent =
        service::request(daemon.config.socket_path, file_line(sources), r);
    EXPECT_TRUE(sent.is_ok()) << sent.render();
    reply.set_value(std::move(r));
  });
  int writer = -1;
  if (answered.wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    // An O_RDWR open of a FIFO never blocks and wakes the blocked reader,
    // so the case fails here instead of hanging.
    writer = ::open(sources[1].c_str(), O_RDWR | O_NONBLOCK);
    ADD_FAILURE() << "a FILE request naming a FIFO was not answered in 5 s";
  }
  client.join();
  if (writer >= 0) ::close(writer);
  EXPECT_EQ(answered.get().status.exit_code(), 3);
  service::Response ping;
  ASSERT_TRUE(
      service::request(daemon.config.socket_path, "PING", ping).is_ok());
  EXPECT_EQ(ping.payload(), "pong");
  EXPECT_TRUE(daemon.stop().is_ok());
  EXPECT_NE(::access(daemon.config.socket_path.c_str(), F_OK), 0);
}

TEST_F(SourceChanges, InvalidateEmptiesTheSourceCache) {
  const std::vector<std::string> sources = paths("invalidate");
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));
  ASSERT_EQ(daemon.service.source_cache().entries(), 2u);
  service::Response r;
  ASSERT_TRUE(
      service::request(daemon.config.socket_path, "INVALIDATE", r).is_ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(daemon.service.source_cache().entries(), 0u);
  EXPECT_EQ(daemon.service.source_cache().bytes(), 0u);
  SourceCounts counts;
  expect_current(daemon, sources);
  EXPECT_EQ(counts.reads(), 2u);
  EXPECT_EQ(counts.hits(), 0u);
}

// Four connections send FILE requests for one pair of sources while a
// writer rewrites the query in place, renames new versions over it and
// renames copies over fletcher.td. Every version differs from the others in
// one byte, so even a read that races an in-place write sees one of them.
// Every reply must be the compile of one version. Runs under TSan in CI.
TEST_F(SourceChanges, ConcurrentRequestsWhileAWriterRewritesAndRenames) {
  const std::vector<std::string> sources = paths("concurrent");
  std::vector<std::string> versions;
  std::vector<std::string> goldens;
  for (int qty = 24; qty < 28; ++qty) {
    versions.push_back(q6_version(qty));
    std::vector<driver::NamedSource> named = {
        {sources[0], tpch::fletcher_source()}, {sources[1], versions.back()}};
    driver::CompileOptions options;
    options.top = "q6_i";
    goldens.push_back(driver::compile(named, options).vhdl_text);
  }
  ASSERT_EQ(std::set<std::string>(goldens.begin(), goldens.end()).size(),
            goldens.size());
  ASSERT_NO_FATAL_FAILURE(warm(daemon, sources));

  constexpr int kConnections = 4;
  constexpr int kRequests = 40;
  // Even steps rewrite the query in place (one pwrite, same size), odd ones
  // rename a new version over it.
  const auto write_version = [&](int step) {
    const std::string& text = versions[static_cast<std::size_t>(step) % 4];
    if (step % 2 == 0) {
      const int fd = ::open(sources[1].c_str(), O_WRONLY);
      ASSERT_GE(fd, 0);
      ASSERT_EQ(::pwrite(fd, text.data(), text.size(), 0),
                static_cast<ssize_t>(text.size()));
      ::close(fd);
    } else {
      write_file(sources[1] + ".tmp", text);
      ASSERT_EQ(::rename((sources[1] + ".tmp").c_str(), sources[1].c_str()),
                0);
    }
  };
  // The query is fresh from here on, so every request reads it; fletcher.td
  // stays aged, and a hit, until half the replies are in.
  write_version(1);
  SourceCounts counts;
  std::atomic<int> running{kConnections};
  std::atomic<int> replies{0};
  std::thread writer([&] {
    for (int step = 2; running.load() > 0; ++step) {
      write_version(step);
      if (step % 8 == 7 && replies.load() >= kConnections * kRequests / 2) {
        write_file(sources[0] + ".tmp", tpch::fletcher_source());
        ASSERT_EQ(::rename((sources[0] + ".tmp").c_str(), sources[0].c_str()),
                  0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_raw(daemon.config.socket_path);
      for (int i = 0; i < kRequests && errors[c].empty(); ++i) {
        service::Response r;
        if (fd < 0 ||
            !service::parse_response(exchange_on(fd, file_line(sources)), r)) {
          errors[c] = "no reply";
        } else if (!r.ok() || std::find(goldens.begin(), goldens.end(),
                                        r.payload()) == goldens.end()) {
          errors[c] = "reply matches no version: " + r.payload().substr(0, 200);
        }
        ++replies;
      }
      if (fd >= 0) ::close(fd);
      --running;
    });
  }
  for (std::thread& t : clients) t.join();
  writer.join();
  for (int c = 0; c < kConnections; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "connection " << c << ": " << errors[c];
  }
  EXPECT_GE(counts.reads(), static_cast<std::uint64_t>(kConnections) *
                                kRequests);
  EXPECT_GE(counts.hits(), static_cast<std::uint64_t>(kConnections) *
                               kRequests / 2);
  EXPECT_LE(daemon.service.source_cache().bytes(),
            service::SourceCache::kMaxBytes);
}

}  // namespace
}  // namespace tydi
