// Driver-facade and CLI tests: pipeline staging, option handling, phase
// timing, multi-source compiles, and the `tydic` executable end-to-end.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/ir/ir.hpp"
#include "src/sim/engine.hpp"
#include "src/support/intern.hpp"

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

  std::ifstream vhdl(vhdl_path);
  std::stringstream vhdl_text;
  vhdl_text << vhdl.rdbuf();
  EXPECT_NE(vhdl_text.str().find("entity top is"), std::string::npos);

  std::ifstream ir(ir_path);
  std::stringstream ir_text;
  ir_text << ir.rdbuf();
  EXPECT_NE(ir_text.str().find("impl top of s"), std::string::npos);
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
  auto read = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string out = read(out_path);
  const std::string err = read(err_path);
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
    std::ifstream in(out_path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(WIFEXITED(rc)) << command;
    EXPECT_EQ(WEXITSTATUS(rc), support::exit_code(
                                   support::StatusCode::kCorruptData))
        << command << "\n" << text.str();
    EXPECT_NE(text.str().find(expected), std::string::npos)
        << command << "\n" << text.str();
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
      std::ifstream in(out_path);
      std::stringstream text;
      text << in.rdbuf();
      EXPECT_TRUE(WIFEXITED(rc)) << command;
      EXPECT_EQ(WEXITSTATUS(rc), expected.exit_code())
          << command << "\n" << text.str();
      EXPECT_EQ(text.str(), "error: " + expected.render() + "\n")
          << command;
    };
    run(std::string(TYDIC_PATH) + " --batch-manifest " + manifest_path,
        dir + "/cli_manifest_refused_tydic.out");
    run(std::string(TYDID_PATH) + " --socket " + dir +
            "/cli_manifest_absent.sock --batch-manifest " + manifest_path,
        dir + "/cli_manifest_refused_tydid.out");
  }
}
#endif  // TYDID_PATH
#endif  // TYDIC_PATH

}  // namespace
}  // namespace tydi
