// Driver-facade and CLI tests: pipeline staging, option handling, phase
// timing, multi-source compiles, and the `tydic` and `tydid` executables
// end-to-end.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/ir/ir.hpp"
#include "src/obs/json.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/sim/engine.hpp"
#include "src/support/intern.hpp"
#include "src/support/source.hpp"
#include "tests/daemon_fixture.hpp"

namespace tydi {
namespace {

constexpr std::string_view kGood = R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t out, }
impl top of s {
  a => b,
}
)";

TEST(Driver, PhaseTimingsRecorded) {
  driver::CompileOptions options;
  options.top = "top";
  auto result = driver::compile_source(std::string(kGood), options);
  ASSERT_TRUE(result.success()) << result.report();
  for (const char* phase : {"parse", "elaborate", "sugar", "lower", "drc",
                            "ir", "vhdl"}) {
    EXPECT_TRUE(result.phase_ms.contains(phase)) << phase;
    EXPECT_GE(result.phase_ms.at(phase), 0.0);
  }
}

TEST(Driver, PhaseTimingsInPipelineOrder) {
  driver::CompileOptions options;
  options.top = "top";
  auto result = driver::compile_source(std::string(kGood), options);
  ASSERT_TRUE(result.success()) << result.report();
  std::vector<std::string> order;
  for (const auto& e : result.phase_ms.entries()) order.push_back(e.phase);
  std::vector<std::string> expected = {"parse", "elaborate", "sugar",
                                       "lower", "drc", "ir", "vhdl"};
  EXPECT_EQ(order, expected);
  EXPECT_GE(result.phase_ms.total_ms(), 0.0);
  EXPECT_NE(result.phase_ms.render().find("parse"), std::string::npos);
}

TEST(Driver, LoweredModulePopulatedOnce) {
  driver::CompileOptions options;
  options.top = "top";
  auto result = driver::compile_source(std::string(kGood), options);
  ASSERT_TRUE(result.success()) << result.report();
  EXPECT_EQ(result.ir.top_name, "top");
  EXPECT_NE(result.ir.find_impl(support::intern("top")), nullptr);
  // The IR text is emitted from the stored module.
  EXPECT_EQ(result.ir_text, ir::emit(result.ir));
}

TEST(Driver, TemplateCacheStatsReported) {
  // voider_i<type t> is instantiated twice with the same argument: the
  // second instantiation must hit the template cache.
  driver::CompileOptions options;
  options.top = "top";
  options.drc.port_use_count_is_error = false;
  auto result = driver::compile_source(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t in, }
impl top of s {
  instance v1(voider_i<type t>),
  instance v2(voider_i<type t>),
  a => v1.in_,
  b => v2.in_,
}
)",
                                       options);
  ASSERT_TRUE(result.success()) << result.report();
  EXPECT_GE(result.template_cache.impl_hits, 1u);
  EXPECT_GE(result.template_cache.impl_misses, 1u);
  EXPECT_GT(result.template_cache.hit_rate(), 0.0);
  EXPECT_LT(result.template_cache.hit_rate(), 1.0);
}

TEST(Driver, WarmCompilesShareMemoPayloads) {
  // Template-memo replay shares Streamlet/Impl payloads into warm designs
  // (shared_ptr slots + copy-on-write) instead of value-copying them: two
  // warm compiles of the same source must reference the *same* payload
  // objects for impls the sugaring pass left untouched (external stdlib
  // monomorphisations qualify — sugaring only rewires structural impls).
  driver::CompileSession session;
  driver::CompileOptions options;
  options.top = "top";
  std::string source = R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t out, }
impl top of s {
  instance v(voider_i<type t>),
  instance d(duplicator_i<type t, 2>),
  a => d.in_,
  d.out_[0] => b,
  d.out_[1] => v.in_,
}
)";
  auto warm_up = session.compile(
      {driver::NamedSource{"input.td", source}}, options);
  ASSERT_TRUE(warm_up.success()) << warm_up.report();
  auto first = session.compile(
      {driver::NamedSource{"input.td", source}}, options);
  auto second = session.compile(
      {driver::NamedSource{"input.td", source}}, options);
  ASSERT_TRUE(first.success()) << first.report();
  ASSERT_TRUE(second.success()) << second.report();

  const elab::Impl* voider_a = nullptr;
  const elab::Impl* voider_b = nullptr;
  for (const elab::Impl& impl : first.design.impls()) {
    if (impl.external && impl.template_name == "voider_i") voider_a = &impl;
  }
  for (const elab::Impl& impl : second.design.impls()) {
    if (impl.external && impl.template_name == "voider_i") voider_b = &impl;
  }
  ASSERT_NE(voider_a, nullptr);
  ASSERT_NE(voider_b, nullptr);
  // Same object, not equal copies: both warm designs replay the memo's
  // shared payload.
  EXPECT_EQ(voider_a, voider_b);

  // Streamlets are never mutated post-insertion, so every streamlet of the
  // two warm designs is shared.
  ASSERT_EQ(first.design.streamlets().size(),
            second.design.streamlets().size());
  for (std::size_t i = 0; i < first.design.streamlets().size(); ++i) {
    EXPECT_EQ(&first.design.streamlets()[i], &second.design.streamlets()[i]);
  }
}

TEST(Driver, BatchManifestLoadsJobs) {
  std::string source_path = "/tmp/tydi_manifest_job.td";
  {
    std::ofstream out(source_path);
    out << kGood;
  }
  std::string manifest_path = "/tmp/tydi_manifest.txt";
  {
    std::ofstream out(manifest_path);
    out << "# comment line\n\n" << source_path << " top\n"
        << source_path << " top\n";
  }
  std::vector<driver::BatchJob> jobs;
  support::Status loaded = driver::load_batch_manifest(manifest_path, jobs);
  ASSERT_TRUE(loaded.is_ok()) << loaded.render();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, source_path + ":top");
  EXPECT_EQ(jobs[0].options.top, "top");
  ASSERT_EQ(jobs[0].sources.size(), 1u);
  EXPECT_EQ(jobs[0].sources[0].name, source_path);

  driver::CompileSession session;
  driver::BatchResult result = driver::compile_batch(session, jobs);
  EXPECT_TRUE(result.success()) << result.render();
  EXPECT_EQ(result.entries.size(), 2u);
  EXPECT_TRUE(result.status().is_ok());

  // Malformed lines (missing top name, trailing field): recorded as
  // pre-failed jobs, not a load failure.
  {
    std::ofstream out(manifest_path);
    out << source_path << "\n" << source_path << " top extra\n";
  }
  jobs.clear();
  loaded = driver::load_batch_manifest(manifest_path, jobs);
  EXPECT_TRUE(loaded.is_ok()) << loaded.render();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].preflight.code(), support::StatusCode::kCorruptData);
  EXPECT_NE(jobs[0].preflight.message().find("expected"), std::string::npos);
  EXPECT_EQ(jobs[1].preflight.code(), support::StatusCode::kCorruptData);
  EXPECT_EQ(jobs[1].preflight.message(),
            manifest_path + ":2: trailing field 'extra'");

  // Unreadable source file: same record-and-skip treatment.
  {
    std::ofstream out(manifest_path);
    out << "/tmp/definitely_missing_source.td top\n";
  }
  jobs.clear();
  loaded = driver::load_batch_manifest(manifest_path, jobs);
  EXPECT_TRUE(loaded.is_ok()) << loaded.render();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].preflight.code(), support::StatusCode::kIoError);

  // So is a manifest without a job line.
  {
    std::ofstream out(manifest_path);
    out << "# only a comment\n\n";
  }
  jobs.clear();
  loaded = driver::load_batch_manifest(manifest_path, jobs);
  EXPECT_EQ(loaded.code(), support::StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.message(), "manifest " + manifest_path + " lists no jobs");
  EXPECT_TRUE(jobs.empty());

  // An unreadable manifest IS fatal.
  jobs.clear();
  loaded = driver::load_batch_manifest("/nonexistent/manifest.txt", jobs);
  EXPECT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.code(), support::StatusCode::kIoError);
  EXPECT_TRUE(jobs.empty());
}

TEST(Driver, BatchSkipsMalformedJobsAndCompilesTheRest) {
  // One bad manifest line must not take down the batch: the well-formed
  // jobs compile, the condemned one surfaces as a failed entry carrying the
  // preflight status.
  std::string source_path = "/tmp/tydi_manifest_mixed.td";
  {
    std::ofstream out(source_path);
    out << kGood;
  }
  std::string manifest_path = "/tmp/tydi_manifest_mixed.txt";
  {
    std::ofstream out(manifest_path);
    out << source_path << " top\n"
        << source_path << "\n"  // malformed: missing top
        << source_path << " top\n";
  }
  std::vector<driver::BatchJob> jobs;
  support::Status loaded = driver::load_batch_manifest(manifest_path, jobs);
  ASSERT_TRUE(loaded.is_ok()) << loaded.render();
  ASSERT_EQ(jobs.size(), 3u);

  driver::CompileSession session;
  driver::BatchResult result = driver::compile_batch(session, jobs);
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_TRUE(result.entries[0].success);
  EXPECT_FALSE(result.entries[1].success);
  EXPECT_EQ(result.entries[1].status.code(),
            support::StatusCode::kCorruptData);
  EXPECT_TRUE(result.entries[2].success);
  EXPECT_EQ(result.failures, 1u);
  // The aggregate status is the first failing entry's classification.
  EXPECT_EQ(result.status().code(), support::StatusCode::kCorruptData);
  EXPECT_EQ(result.status().exit_code(), 4);
}

TEST(Driver, CompileStatusClassifiesFailurePhase) {
  driver::CompileOptions options;
  options.top = "top";
  // Parse failure -> kParseError / exit 5.
  auto parse_fail = driver::compile_source("streamlet {", options);
  ASSERT_FALSE(parse_fail.success());
  EXPECT_EQ(parse_fail.status().code(), support::StatusCode::kParseError);
  EXPECT_EQ(parse_fail.status().exit_code(), 5);
  // Elaboration failure (unknown impl) -> kElabError / exit 6.
  auto elab_fail = driver::compile_source(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, }
impl top of s {
  instance v(no_such_impl<type t>),
  a => v.in_,
}
)",
                                          options);
  ASSERT_FALSE(elab_fail.success());
  EXPECT_EQ(elab_fail.status().code(), support::StatusCode::kElabError);
  EXPECT_EQ(elab_fail.status().exit_code(), 6);
  // Success -> kOk / exit 0.
  auto good = driver::compile_source(std::string(kGood), options);
  ASSERT_TRUE(good.success()) << good.report();
  EXPECT_TRUE(good.status().is_ok());
  EXPECT_EQ(good.status().exit_code(), 0);
}

TEST(Driver, EmitFlagsControlOutputs) {
  driver::CompileOptions options;
  options.top = "top";
  options.emit_ir = false;
  options.emit_vhdl = false;
  auto result = driver::compile_source(std::string(kGood), options);
  ASSERT_TRUE(result.success());
  EXPECT_TRUE(result.ir_text.empty());
  EXPECT_TRUE(result.vhdl_text.empty());
  EXPECT_FALSE(result.phase_ms.contains("ir"));
  EXPECT_FALSE(result.phase_ms.contains("vhdl"));
}

TEST(Driver, ParseErrorsStopThePipeline) {
  driver::CompileOptions options;
  options.top = "top";
  auto result = driver::compile_source("streamlet {", options);
  EXPECT_FALSE(result.success());
  // Elaboration never ran.
  EXPECT_FALSE(result.phase_ms.contains("elaborate"));
  EXPECT_TRUE(result.vhdl_text.empty());
}

TEST(Driver, WithoutStdlibStdComponentsAreUnknown) {
  driver::CompileOptions options;
  options.top = "top";
  options.include_stdlib = false;
  auto result = driver::compile_source(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, }
impl top of s {
  instance v(voider_i<type t>),
  a => v.in_,
}
)",
                                       options);
  EXPECT_FALSE(result.success());
  EXPECT_NE(result.report().find("unknown impl 'voider_i'"),
            std::string::npos);
}

TEST(Driver, MultiSourceCompilesShareDeclarations) {
  std::vector<driver::NamedSource> sources;
  sources.push_back({"types.td", "type t_shared = Stream(Bit(8), d=1, c=2);"});
  sources.push_back({"design.td", R"(
streamlet s { a: t_shared in, b: t_shared out, }
impl top of s {
  a => b,
}
)"});
  driver::CompileOptions options;
  options.top = "top";
  auto result = driver::compile(sources, options);
  EXPECT_TRUE(result.success()) << result.report();
}

TEST(Driver, DiagnosticsNameTheSourceFile) {
  std::vector<driver::NamedSource> sources;
  sources.push_back({"broken_one.td", "const bad = ;"});
  driver::CompileOptions options;
  auto result = driver::compile(sources, options);
  EXPECT_FALSE(result.success());
  EXPECT_NE(result.report().find("broken_one.td"), std::string::npos);
}

TEST(Driver, RunAllElaboratesEveryConcreteImpl) {
  driver::CompileOptions options;  // no top
  auto result = driver::compile_source(std::string(kGood), options);
  ASSERT_TRUE(result.success()) << result.report();
  EXPECT_NE(result.design.find_impl("top"), nullptr);
  EXPECT_TRUE(result.design.top().empty());
}

TEST(SimOptions, ClockDomainPeriodsScaleChannelLatency) {
  // Identical design, slower clock domain => later deliveries.
  constexpr std::string_view source = R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in @ slow_clk, b: t out @ slow_clk, }
impl top of s {
  a => b,
}
)";
  driver::CompileOptions options;
  options.top = "top";
  options.emit_vhdl = false;
  auto compiled = driver::compile_source(std::string(source), options);
  ASSERT_TRUE(compiled.success()) << compiled.report();

  auto run_with_period = [&compiled](double period) {
    support::DiagnosticEngine diags;
    sim::Engine engine(compiled.design, diags);
    sim::SimOptions sim_options;
    sim_options.clock_period_ns = {{"slow_clk", period}};
    sim::Stimulus stim;
    stim.port = "a";
    stim.packets.emplace_back(0.0, sim::Packet{7, true});
    sim_options.stimuli.push_back(stim);
    return engine.run(sim_options);
  };

  auto fast = run_with_period(10.0);
  auto slow = run_with_period(40.0);
  ASSERT_EQ(fast.top_outputs.at("b").size(), 1u);
  ASSERT_EQ(slow.top_outputs.at("b").size(), 1u);
  EXPECT_LT(fast.top_outputs.at("b")[0].first,
            slow.top_outputs.at("b")[0].first);
}

#ifdef TYDIC_PATH
std::string read_text(const std::string& path) {
  std::string text;
  (void)support::read_file(path, text);
  return text;
}

TEST(Cli, TydicCompilesFileEndToEnd) {
  std::string dir = ::testing::TempDir();
  std::string td_path = dir + "/cli_design.td";
  std::string vhdl_path = dir + "/cli_design.vhd";
  std::string ir_path = dir + "/cli_design.tir";
  {
    std::ofstream out(td_path);
    out << kGood;
  }
  std::string command = std::string(TYDIC_PATH) + " --top top --emit-ir " +
                        ir_path + " --emit-vhdl " + vhdl_path + " " +
                        td_path + " > /dev/null 2>&1";
  int rc = std::system(command.c_str());
  EXPECT_EQ(rc, 0) << command;

  EXPECT_NE(read_text(vhdl_path).find("entity top is"), std::string::npos);
  EXPECT_NE(read_text(ir_path).find("impl top of s"), std::string::npos);
}

TEST(Cli, TydicReportsErrorsWithNonZeroExit) {
  std::string dir = ::testing::TempDir();
  std::string td_path = dir + "/cli_broken.td";
  {
    std::ofstream out(td_path);
    out << "const bad = ;";
  }
  std::string command = std::string(TYDIC_PATH) + " --top top " + td_path +
                        " > /dev/null 2>&1";
  int rc = std::system(command.c_str());
  EXPECT_NE(rc, 0);
  // The exit code names the failure class: parse errors exit 5 (see
  // src/support/status.hpp).
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 5) << command;
}

TEST(Cli, TydicSimOnExternalTopReportsTheErrorOnce) {
  // An @external top cannot be simulated: the run exits 2 with the
  // diagnostic engine's error and no bottleneck report for a run that
  // never happened.
  std::string dir = ::testing::TempDir();
  std::string td_path = dir + "/cli_external_top.td";
  std::string out_path = dir + "/cli_external_top.out";
  std::string err_path = dir + "/cli_external_top.err";
  {
    std::ofstream out(td_path);
    out << R"(package p;
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t out, }
impl top of s @ external {}
)";
  }
  std::string command = std::string(TYDIC_PATH) + " --top top --sim " +
                        td_path + " > " + out_path + " 2> " + err_path;
  int rc = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2) << command;
  const std::string out = read_text(out_path);
  const std::string err = read_text(err_path);
  EXPECT_EQ(out.find("Bottleneck report"), std::string::npos) << out;
  const std::string what = "top implementation must be structural";
  const std::size_t first = err.find(what);
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(what, first + 1), std::string::npos) << err;
}

TEST(Cli, TydicUsageOnMissingArguments) {
  std::string command = std::string(TYDIC_PATH) + " > /dev/null 2>&1";
  EXPECT_NE(std::system(command.c_str()), 0);
}

#ifdef TYDID_PATH
TEST(Cli, ManifestTrailingFieldFailsTheSameInTydicAndTydid) {
  // `a.td top extra` is a corrupt line for both manifest readers: tydic
  // records it as a failed job, and the tydid batch client fails it
  // without sending a request (the socket does not exist, so a sent
  // request would fail with a transport error instead).
  const std::string dir = ::testing::TempDir();
  const std::string td_path = dir + "/cli_manifest_job.td";
  const std::string manifest_path = dir + "/cli_manifest_trailing.txt";
  {
    std::ofstream out(td_path);
    out << kGood;
  }
  {
    std::ofstream out(manifest_path);
    out << td_path << " top extra\n";
  }
  const std::string expected =
      support::Status::error(support::StatusCode::kCorruptData, "manifest",
                             manifest_path + ":1: trailing field 'extra'")
          .render();
  auto run = [&](const std::string& command, const std::string& out_path) {
    const int rc =
        std::system((command + " > " + out_path + " 2>&1").c_str());
    const std::string text = read_text(out_path);
    EXPECT_TRUE(WIFEXITED(rc)) << command;
    EXPECT_EQ(WEXITSTATUS(rc), support::exit_code(
                                   support::StatusCode::kCorruptData))
        << command << "\n" << text;
    EXPECT_NE(text.find(expected), std::string::npos)
        << command << "\n" << text;
  };
  run(std::string(TYDIC_PATH) + " --batch-manifest " + manifest_path,
      dir + "/cli_manifest_tydic.out");
  run(std::string(TYDID_PATH) + " --socket " + dir +
          "/cli_manifest_absent.sock --batch-manifest " + manifest_path,
      dir + "/cli_manifest_tydid.out");
}
TEST(Cli, ManifestWithoutJobsFailsTheSameInTydicAndTydid) {
  // A manifest of only comments and blank lines lists no jobs, and a
  // missing one cannot be read: both manifest readers refuse either with
  // the same message and exit code, before any compile or request.
  const std::string dir = ::testing::TempDir();
  const std::string empty_path = dir + "/cli_manifest_empty.txt";
  {
    std::ofstream out(empty_path);
    out << "# no jobs here\n\n   \n# nor here\n";
  }
  const std::string missing_path = dir + "/cli_manifest_missing.txt";
  std::remove(missing_path.c_str());
  const std::vector<std::pair<std::string, support::Status>> cases = {
      {empty_path,
       support::Status::error(support::StatusCode::kInvalidArgument,
                              "manifest",
                              "manifest " + empty_path + " lists no jobs")},
      {missing_path,
       support::Status::error(support::StatusCode::kIoError, "manifest",
                              "cannot read manifest " + missing_path)},
  };
  for (const auto& [manifest_path, expected] : cases) {
    auto run = [&](const std::string& command, const std::string& out_path) {
      const int rc =
          std::system((command + " > " + out_path + " 2>&1").c_str());
      const std::string text = read_text(out_path);
      EXPECT_TRUE(WIFEXITED(rc)) << command;
      EXPECT_EQ(WEXITSTATUS(rc), expected.exit_code())
          << command << "\n" << text;
      EXPECT_EQ(text, "error: " + expected.render() + "\n") << command;
    };
    run(std::string(TYDIC_PATH) + " --batch-manifest " + manifest_path,
        dir + "/cli_manifest_refused_tydic.out");
    run(std::string(TYDID_PATH) + " --socket " + dir +
            "/cli_manifest_absent.sock --batch-manifest " + manifest_path,
        dir + "/cli_manifest_refused_tydid.out");
  }
}

// ---------------------------------------------------------------------------
// The built `tydid` on a temp socket, fed by `tydic --dump-tpch`. Every
// wait polls the daemon's STATS; no case asserts a time.
// ---------------------------------------------------------------------------

/// A temp directory for one case, removed with everything in it.
struct ScratchDir {
  ScratchDir() {
    char name[] = "/tmp/tydi_cli_XXXXXX";
    if (::mkdtemp(name) != nullptr) path = name;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  std::string path;
};

/// A process started from `argv`, stdout to `out_path`, stderr to
/// `out_path` + ".err". Unless wait() reaped it, the destructor sends
/// SIGKILL and reaps it, so a failed assertion leaves no process behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& out_path) {
    posix_spawn_file_actions_t files;
    ::posix_spawn_file_actions_init(&files);
    ::posix_spawn_file_actions_addopen(&files, STDOUT_FILENO,
                                       out_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::posix_spawn_file_actions_addopen(&files, STDERR_FILENO,
                                       (out_path + ".err").c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    if (::posix_spawn(&pid_, args[0], &files, nullptr, args.data(),
                      environ) != 0) {
      pid_ = -1;
    }
    ::posix_spawn_file_actions_destroy(&files);
    EXPECT_GT(pid_, 0) << argv[0];
  }
  ~Child() {
    signal(SIGKILL);
    (void)wait();
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  void signal(int sig) const {
    if (pid_ > 0) ::kill(pid_, sig);
  }

  /// Reaps the process: its exit code, or 128 + the signal that ended it;
  /// -1 once reaped or when it never started. A process still running
  /// after a minute is a hang: it fails the case and is killed.
  int wait() {
    if (pid_ <= 0) return -1;
    int status = 0;
    for (int ms = 0; ::waitpid(pid_, &status, WNOHANG) == 0; ++ms) {
      if (ms == 60000) {
        ADD_FAILURE() << "process " << pid_ << " hung; killed";
        ::kill(pid_, SIGKILL);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

 private:
  pid_t pid_ = -1;
};

/// Runs `argv` to completion: its exit code; its stdout in `out` if given.
int run(const std::vector<std::string>& argv, const std::string& out_path,
        std::string* out = nullptr) {
  const int code = Child(argv, out_path).wait();
  if (out != nullptr) *out = read_text(out_path);
  return code;
}

/// `tydid --socket <socket> <args...>`.
std::vector<std::string> tydid(const std::string& socket,
                               std::vector<std::string> args) {
  args.insert(args.begin(), {TYDID_PATH, "--socket", socket});
  return args;
}

/// STATS text as name -> value; `numeric` says whether every line was
/// "name <number>".
std::map<std::string, double> parse_stats(const std::string& text,
                                          bool* numeric = nullptr) {
  std::map<std::string, double> values;
  std::istringstream lines(text);
  std::string name;
  double value = 0.0;
  while (lines >> name >> value) values[name] = value;
  if (numeric != nullptr) *numeric = lines.eof() && !values.empty();
  return values;
}

/// A `tydid` daemon with `flags` on `<dir>/tydid.sock`. The destructor
/// kills and reaps it, unless a case reaped it, and removes the socket.
struct Daemon {
  Daemon(const std::string& dir, const std::vector<std::string>& flags)
      : dir(dir),
        socket(dir + "/tydid.sock"),
        process(tydid(socket, flags), dir + "/tydid.log") {}
  ~Daemon() {
    process.signal(SIGKILL);
    (void)process.wait();
    ::unlink(socket.c_str());
  }

  /// The client command line for one request.
  [[nodiscard]] std::vector<std::string> request(
      const std::string& line, std::vector<std::string> flags = {}) const {
    flags.insert(flags.end(), {"--request", line});
    return tydid(socket, flags);
  }

  /// Runs a client to completion: its exit code; its stdout in `out`.
  int client(const std::string& line, std::string* out = nullptr,
             const std::vector<std::string>& flags = {}) const {
    return run(request(line, flags), dir + "/client.out", out);
  }

  /// `tydid --shutdown`, then the daemon's own exit code.
  int shutdown() {
    std::string bye;
    EXPECT_EQ(run(tydid(socket, {"--shutdown"}), dir + "/client.out", &bye),
              0);
    EXPECT_EQ(bye, "bye");
    return process.wait();
  }

  /// The daemon's STATS as name -> value; empty if it does not answer.
  [[nodiscard]] std::map<std::string, double> stats() const {
    service::Response r;
    if (!service::request(socket, "STATS", r).is_ok() || !r.ok()) return {};
    return parse_stats(r.payload());
  }

  /// Polls STATS until `ready` holds for its values; false if it never
  /// does (or the daemon never answers).
  [[nodiscard]] bool await(
      const std::function<bool(std::map<std::string, double>&)>& ready =
          [](std::map<std::string, double>&) { return true; }) const {
    for (int i = 0; i < 20000; ++i) {
      std::map<std::string, double> values = stats();
      if (!values.empty() && ready(values)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  std::string dir;
  std::string socket;
  Child process;
};

/// `tydic --dump-tpch <dir>`: the jobs of the manifest it writes.
std::vector<driver::ManifestLine> dump_tpch(const std::string& dir) {
  std::vector<driver::ManifestLine> jobs;
  EXPECT_EQ(run({TYDIC_PATH, "--dump-tpch", dir}, dir + "/dump.out"), 0);
  EXPECT_TRUE(
      driver::parse_batch_manifest(dir + "/manifest.txt", jobs).is_ok());
  return jobs;
}

std::string file_request(const driver::ManifestLine& job) {
  return "FILE " + job.sources + " " + job.top + " vhdl";
}

/// What a FILE request for `job` must answer: the session-free compile of
/// the bytes on disk.
std::string session_free_vhdl(const driver::ManifestLine& job) {
  std::vector<driver::NamedSource> sources;
  std::istringstream paths(job.sources);
  std::string path;
  while (std::getline(paths, path, ',')) {
    sources.push_back({path, read_text(path)});
  }
  driver::CompileOptions options;
  options.top = job.top;
  return driver::compile(sources, options).vhdl_text;
}

TEST(Cli, TydidServesTheTpchDumpByteIdenticallyAndShedsWhenFull) {
  ScratchDir dir;
  const std::vector<driver::ManifestLine> jobs = dump_tpch(dir.path);
  ASSERT_GE(jobs.size(), 4u);
  Daemon daemon(dir.path, {"--workers", "1", "--queue-capacity", "1"});
  ASSERT_TRUE(daemon.await());
  for (const driver::ManifestLine& job : jobs) {
    std::string vhdl;
    EXPECT_EQ(daemon.client(file_request(job), &vhdl), 0) << job.top;
    EXPECT_TRUE(vhdl == session_free_vhdl(job)) << job.top;
  }
  // The error taxonomy over the wire: an unknown query is a usage error, a
  // directory in a source's place an io-error, and the daemon serves on.
  // tydic refuses the directory with an exit code too.
  EXPECT_EQ(daemon.client("TPCH 99 vhdl"), 2);
  EXPECT_EQ(daemon.client("FILE " + dir.path + " top vhdl"), 3);
  std::string text;
  EXPECT_EQ(daemon.client("PING", &text), 0);
  EXPECT_EQ(text, "pong");
  EXPECT_EQ(run({TYDIC_PATH, dir.path}, dir.path + "/tydic.out"), 2);

  // STATS is "name <number>" lines and shows the caches the compiles
  // filled; METRICS is valid JSON with their phase histograms.
  ASSERT_EQ(daemon.client("STATS", &text), 0);
  bool numeric = false;
  std::map<std::string, double> stats = parse_stats(text, &numeric);
  EXPECT_TRUE(numeric) << text;
  for (const char* name : {"parse_cache", "memo_impls", "backend_entries"}) {
    EXPECT_GT(stats[name], 0.0) << name;
  }
  ASSERT_EQ(daemon.client("METRICS", &text), 0);
  EXPECT_TRUE(obs::json_valid(text));
  EXPECT_NE(text.find("\"tydi.compile.phase_ms."), std::string::npos);
  EXPECT_NE(text.find("\"tydi.memo."), std::string::npos);

  // The worker runs one SLEEP and the queue's one slot holds another (STATS
  // counts itself in flight), so a SLEEP sent once more is shed.
  Child running(daemon.request("SLEEP 600000"), dir.path + "/running.out");
  ASSERT_TRUE(daemon.await([](std::map<std::string, double>& s) {
    return s["in_flight"] >= 2 && s["queue_depth"] == 0;
  }));
  Child queued(daemon.request("SLEEP 600000"), dir.path + "/queued.out");
  ASSERT_TRUE(daemon.await([](std::map<std::string, double>& s) {
    return s["in_flight"] >= 3 && s["queue_depth"] == 1;
  }));
  EXPECT_EQ(daemon.client("SLEEP 1", nullptr, {"--retries", "1"}), 12);
  ASSERT_EQ(daemon.client("HEALTH", &text), 0);
  EXPECT_TRUE(obs::json_valid(text)) << text;
  EXPECT_EQ(json_field(text, "workers"), 1.0) << text;
  EXPECT_EQ(json_field(text, "shed_total"), 1.0) << text;
  EXPECT_NE(text.find("\"draining\":false"), std::string::npos) << text;

  // Dead clients cancel their SLEEPs, so SHUTDOWN drains at once; the
  // daemon exits 0 and removes its socket.
  running.signal(SIGKILL);
  queued.signal(SIGKILL);
  EXPECT_EQ(running.wait(), 128 + SIGKILL);
  EXPECT_EQ(queued.wait(), 128 + SIGKILL);
  EXPECT_EQ(daemon.shutdown(), 0);
  EXPECT_NE(::access(daemon.socket.c_str(), F_OK), 0);
}

TEST(Cli, TydidReplaysItsJournalAfterKill9) {
  ScratchDir dir;
  const std::vector<driver::ManifestLine> jobs = dump_tpch(dir.path);
  ASSERT_GE(jobs.size(), 4u);
  const std::vector<std::string> flags = {"--journal", dir.path + "/j"};
  {
    Daemon first(dir.path, flags);
    ASSERT_TRUE(first.await());
    for (const driver::ManifestLine& job : jobs) {
      EXPECT_EQ(first.client(file_request(job)), 0) << job.top;
    }
    // No drain and no final compaction: recovery has to cope.
    first.process.signal(SIGKILL);
    EXPECT_EQ(first.process.wait(), 128 + SIGKILL);
  }
  Daemon second(dir.path, flags);
  ASSERT_TRUE(second.await([](std::map<std::string, double>& s) {
    return s["replay_done"] == 1;
  }));
  std::string health;
  ASSERT_EQ(second.client("HEALTH", &health), 0);
  EXPECT_TRUE(obs::json_valid(health)) << health;
  EXPECT_GE(json_field(health, "replayed"), 4.0) << health;
  EXPECT_NE(health.find("\"journal_error\":\"\""), std::string::npos)
      << health;
  // Replay admitted every recovered key: each request is a result-cache
  // hit, byte-identical to the session-free compile.
  const double hits0 = second.stats()["result_cache_hits"];
  for (const driver::ManifestLine& job : jobs) {
    std::string vhdl;
    EXPECT_EQ(second.client(file_request(job), &vhdl), 0) << job.top;
    EXPECT_TRUE(vhdl == session_free_vhdl(job)) << job.top;
  }
  EXPECT_EQ(second.stats()["result_cache_hits"] - hits0,
            static_cast<double>(jobs.size()));
  EXPECT_EQ(second.shutdown(), 0);
}

TEST(Cli, TydidDrainsOnSigterm) {
  ScratchDir dir;
  Daemon daemon(dir.path, {});
  ASSERT_TRUE(daemon.await());
  Child sleeper(daemon.request("SLEEP 1000"), dir.path + "/sleeper.out");
  ASSERT_TRUE(daemon.await([](std::map<std::string, double>& s) {
    return s["in_flight"] >= 2 && s["queue_depth"] == 0;
  }));
  daemon.process.signal(SIGTERM);
  EXPECT_EQ(sleeper.wait(), 0);
  EXPECT_EQ(daemon.process.wait(), 0);
  EXPECT_NE(::access(daemon.socket.c_str(), F_OK), 0);
}

TEST(Cli, TydicBatchWritesAChromeTraceAndMetrics) {
  ScratchDir dir;
  const std::string trace_path = dir.path + "/trace.json";
  const std::string metrics_path = dir.path + "/metrics.json";
  ASSERT_EQ(run({TYDIC_PATH, "--batch", "--batch-rounds", "2", "--jobs", "2",
                 "--trace-profile", trace_path, "--metrics-out",
                 metrics_path},
                dir.path + "/batch.out"),
            0);
  const std::string trace = read_text(trace_path);
  const std::string metrics = read_text(metrics_path);
  EXPECT_TRUE(obs::json_valid(trace));
  EXPECT_TRUE(obs::json_valid(metrics));
  EXPECT_NE(trace.find("\"name\":\"compile.phase."), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"batch.job\""), std::string::npos);
  EXPECT_GE(json_field(metrics, "tydi.batch.jobs"), 6.0) << metrics;
  // Every event is a complete ("X") span.
  const std::string ph = "\"ph\":\"";
  std::size_t spans = 0;
  for (std::size_t at = trace.find(ph); at != std::string::npos;
       at = trace.find(ph, at + 1), ++spans) {
    EXPECT_EQ(trace.compare(at, ph.size() + 1, ph + "X"), 0) << at;
  }
  EXPECT_GT(spans, 0u);
}
#endif  // TYDID_PATH
#endif  // TYDIC_PATH

}  // namespace
}  // namespace tydi
