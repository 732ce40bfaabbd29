// Guard-rail tests: deterministic fault injection, the no-progress
// watchdog, and the run budgets (src/sim/fault.hpp, src/sim/guard.hpp).
// This binary also runs under TSan in CI (sim-shard-tsan): the budgets are
// checked on the shard threads.
//
//  - Seed-derived fault plans perturb thread timing (delayed mailbox posts,
//    barrier jitter, shard stalls) and, in credit mode, defer ack flushes.
//    The exact protocol must stay byte-identical and credit mode
//    functionally equivalent to a fault-free run — every control decision
//    derives from barrier-reduced values, never from arrival order.
//  - The withheld-ack hang fault livelocks the credit loop on purpose; the
//    watchdog must convert it into SimResult::aborted with per-shard
//    forensics instead of hanging the process.
//  - The max-events / wall-clock budgets must terminate gracefully with
//    partial results and a named abort reason.
#include <gtest/gtest.h>

#include <functional>

#include "src/driver/compiler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/guard.hpp"
#include "src/sim/metrics.hpp"

namespace tydi {
namespace {

/// Saturated 12-stage pipeline: cut channels stay occupied, so every
/// injection site (mailbox posts, barrier rounds, credit flushes) is hot.
constexpr std::string_view kPipelineSource = R"tydi(
package faulttest;
type t_word = Stream(Bit(32), d=1, c=2);
streamlet stage_s<T: type> { in_: T in, out: T out, }
impl pipeline_i<T: type, stage: impl of stage_s, n: int> of stage_s<type T> {
  instance st(stage) [n],
  in_ => st[0].in_,
  for i in 0->n-1 {
    st[i].out => st[i+1].in_,
  }
  st[n-1].out => out,
}
impl slow_stage of stage_s<type t_word> @ external {
  sim {
    on in_.receive {
      delay(6);
      send(out);
      ack(in_);
    }
  }
}
streamlet sat_s { feed: t_word in, drained: t_word out, }
impl sat_top of sat_s {
  instance pipe(pipeline_i<type t_word, impl slow_stage, 12>),
  feed => pipe.in_,
  pipe.out => drained,
}
)tydi";

/// The saturated pipeline at `stages` stages (12, or the sharded-sim
/// bench's 48).
driver::CompileResult compile_pipeline(int stages = 12) {
  driver::CompileOptions options;
  options.top = "sat_top";
  options.emit_vhdl = false;
  std::string source(kPipelineSource);
  const std::string needle = "slow_stage, 12>";
  source.replace(source.find(needle), needle.size(),
                 "slow_stage, " + std::to_string(stages) + ">");
  driver::CompileResult compiled =
      driver::compile_source(std::move(source), options);
  EXPECT_TRUE(compiled.success()) << compiled.report();
  return compiled;
}

sim::SimOptions base_options(const elab::Design& design, int packets,
                             int shards) {
  sim::SimOptions options;
  options.max_time_ns = 1.0e7;
  options.shards = shards;
  options.stimuli = sim::generic_stimuli(design, packets, 1.0);
  return options;
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, SeedZeroDisablesEverySite) {
  sim::FaultPlan plan = sim::FaultPlan::from_seed(0);
  EXPECT_FALSE(plan.enabled());
  sim::FaultInjector injector(plan, /*shard=*/0);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(injector.fires(sim::FaultInjector::Site::kMailboxPost));
    EXPECT_FALSE(injector.fires(sim::FaultInjector::Site::kBarrierArrive));
  }
}

TEST(FaultPlan, FromSeedActivatesEverySite) {
  sim::FaultPlan plan = sim::FaultPlan::from_seed(42);
  EXPECT_TRUE(plan.enabled());
  for (double p : {plan.delay_delivery_p, plan.barrier_jitter_p, plan.stall_p,
                   plan.withhold_credit_p}) {
    EXPECT_GE(p, 0.05);
    EXPECT_LE(p, 0.5);
  }
}

TEST(FaultPlan, ScheduleIsStatelessAndDeterministic) {
  // Two injectors for the same (plan, shard) must produce the identical
  // fire sequence — the schedule is a pure function of (seed, shard, site,
  // step), not of thread interleaving.
  sim::FaultPlan plan = sim::FaultPlan::from_seed(7);
  sim::FaultInjector a(plan, 1);
  sim::FaultInjector b(plan, 1);
  sim::FaultInjector other_shard(plan, 2);
  int diverging = 0;
  for (int i = 0; i < 256; ++i) {
    bool fa = a.fires(sim::FaultInjector::Site::kMailboxPost);
    bool fb = b.fires(sim::FaultInjector::Site::kMailboxPost);
    EXPECT_EQ(fa, fb) << "step " << i;
    if (fa != other_shard.fires(sim::FaultInjector::Site::kMailboxPost)) {
      ++diverging;
    }
  }
  // Different shards see decorrelated schedules.
  EXPECT_GT(diverging, 0);
}

TEST(FaultPlan, ParseRoundTrip) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse(
      "seed=9,delay=0.25,jitter=0.1,stall=0.05,withhold=0.3,spin=500,hang=1",
      plan, error))
      << error;
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.delay_delivery_p, 0.25);
  EXPECT_DOUBLE_EQ(plan.barrier_jitter_p, 0.1);
  EXPECT_DOUBLE_EQ(plan.stall_p, 0.05);
  EXPECT_DOUBLE_EQ(plan.withhold_credit_p, 0.3);
  EXPECT_EQ(plan.delay_spin_iters, 500u);
  EXPECT_TRUE(plan.withhold_acks_forever);

  // render() -> parse() reproduces the plan.
  sim::FaultPlan reparsed;
  ASSERT_TRUE(sim::FaultPlan::parse(plan.render(), reparsed, error)) << error;
  EXPECT_EQ(reparsed.render(), plan.render());
}

TEST(FaultPlan, ParseRejectsBadInput) {
  sim::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(sim::FaultPlan::parse("delay", plan, error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(sim::FaultPlan::parse("bogus=1", plan, error));
  EXPECT_NE(error.find("unknown"), std::string::npos);
  error.clear();
  EXPECT_FALSE(sim::FaultPlan::parse("delay=abc", plan, error));
  EXPECT_FALSE(error.empty());
}

TEST(FaultPlan, ExplicitPlanIsAlwaysActive) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("delay=0.5", plan, error)) << error;
  EXPECT_TRUE(plan.enabled());  // seed forced nonzero
}

// ---------------------------------------------------------------------------
// Fault-injected runs keep the protocol contracts
// ---------------------------------------------------------------------------

TEST(SimFault, ExactModeByteIdenticalUnderFaults) {
  driver::CompileResult compiled = compile_pipeline();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult reference =
      engine.run(base_options(compiled.design, 48, 1));
  ASSERT_FALSE(reference.aborted);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (int shards : {1, 2, 4}) {
      sim::SimOptions options = base_options(compiled.design, 48, shards);
      options.fault = sim::FaultPlan::from_seed(seed);
      options.fault.delay_spin_iters = 100;
      sim::SimResult faulted = engine.run(options);
      std::string why;
      EXPECT_TRUE(sim::results_identical(reference, faulted, &why))
          << "seed " << seed << ", " << shards << " shards: " << why;
    }
  }
}

TEST(SimFault, CreditModeFunctionallyEquivalentUnderFaults) {
  driver::CompileResult compiled = compile_pipeline();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult reference =
      engine.run(base_options(compiled.design, 48, 1));
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (int shards : {2, 4}) {
      sim::SimOptions options = base_options(compiled.design, 48, shards);
      options.ack_mode = sim::AckMode::kCredit;
      options.fault = sim::FaultPlan::from_seed(seed);
      options.fault.delay_spin_iters = 100;
      sim::SimResult faulted = engine.run(options);
      std::string why;
      EXPECT_TRUE(
          sim::results_functionally_equivalent(reference, faulted, &why))
          << "seed " << seed << ", " << shards << " shards: " << why;
    }
  }
}

TEST(SimFault, SameFaultPlanIsReproducible) {
  driver::CompileResult compiled = compile_pipeline();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options = base_options(compiled.design, 48, 4);
  options.ack_mode = sim::AckMode::kCredit;
  options.fault = sim::FaultPlan::from_seed(11);
  options.fault.delay_spin_iters = 100;
  sim::SimResult first = engine.run(options);
  sim::SimResult second = engine.run(options);
  std::string why;
  EXPECT_TRUE(sim::results_identical(first, second, &why)) << why;
}

// ---------------------------------------------------------------------------
// Watchdog + budgets
// ---------------------------------------------------------------------------

TEST(SimGuard, WatchdogConvertsWithheldAckHangIntoAbort) {
  // The hang fault swallows every credit ack flush: sources run out of
  // credits, queues drain, the quiescence check keeps seeing pending ack
  // batches and the round loop livelocks at zero events. Without the
  // watchdog this test would never return.
  for (auto [stages, packets] : {std::pair{12, 32}, std::pair{48, 64}}) {
    SCOPED_TRACE(std::to_string(stages) + " stages");
    driver::CompileResult compiled = compile_pipeline(stages);
    support::DiagnosticEngine diags;
    sim::Engine engine(compiled.design, diags);
    sim::SimOptions options = base_options(compiled.design, packets, 2);
    options.ack_mode = sim::AckMode::kCredit;
    options.fault.seed = 1;
    options.fault.withhold_acks_forever = true;
    options.watchdog_timeout_ms = 150.0;
    sim::SimResult result = engine.run(options);

    ASSERT_TRUE(result.aborted);
    EXPECT_EQ(result.abort_reason,
              sim::to_string(sim::StopCause::kWatchdogNoProgress));
    EXPECT_FALSE(result.deadlock);  // aborted runs skip deadlock analysis
    ASSERT_EQ(result.shard_forensics.size(), 2u);
    std::int64_t pending = 0;
    for (const sim::ShardForensics& f : result.shard_forensics) {
      EXPECT_FALSE(f.summary().empty());
      pending += f.pending_ack_batches;
    }
    // The forensics name the hang: acks were consumed but never flushed.
    EXPECT_GT(pending, 0);
    // Classification for the CLI: kAborted, exit code 10.
    EXPECT_EQ(result.status().code(), support::StatusCode::kAborted);
    EXPECT_EQ(result.status().exit_code(), 10);
    EXPECT_NE(result.summary().find("ABORTED"), std::string::npos);
  }
}

TEST(SimGuard, MaxEventsBudgetAbortsWithPartialResults) {
  driver::CompileResult compiled = compile_pipeline();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult full = engine.run(base_options(compiled.design, 64, 1));
  ASSERT_FALSE(full.aborted);
  ASSERT_GT(full.events_processed, 600u);

  for (int shards : {1, 2}) {
    sim::SimOptions options = base_options(compiled.design, 64, shards);
    options.max_events = 500;
    sim::SimResult capped = engine.run(options);
    EXPECT_TRUE(capped.aborted) << shards << " shards";
    EXPECT_EQ(capped.abort_reason,
              sim::to_string(sim::StopCause::kMaxEvents))
        << shards << " shards";
    // Partial results: some work done, less than the full run (the guard
    // syncs every 256 events, so allow one stride of overshoot).
    EXPECT_GT(capped.events_processed, 0u);
    EXPECT_LT(capped.events_processed, full.events_processed);
    EXPECT_FALSE(capped.shard_forensics.empty());
  }
}

TEST(SimGuard, WallClockBudgetAbortsAHungRun) {
  // Same livelock as the watchdog test, but the watchdog is disabled and
  // the wall-clock budget must fire instead.
  driver::CompileResult compiled = compile_pipeline();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options = base_options(compiled.design, 32, 2);
  options.ack_mode = sim::AckMode::kCredit;
  options.fault.seed = 1;
  options.fault.withhold_acks_forever = true;
  options.watchdog_timeout_ms = 0.0;  // disabled
  options.wall_clock_budget_ms = 200.0;
  sim::SimResult result = engine.run(options);
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason,
            sim::to_string(sim::StopCause::kWallClock));
}

// The wall-clock and RSS budgets on both run shapes. A 1-shard run checks
// them only every 256 events in the kernel, a 2-shard run also after every
// exchange. Budgets this small are over at the first check whatever the
// machine's speed: 1 ns of wall clock, and 1 MiB of a process that holds
// more.
void expect_budget_abort(const std::function<void(sim::SimOptions&)>& set,
                         sim::StopCause cause) {
  driver::CompileResult compiled = compile_pipeline();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult full = engine.run(base_options(compiled.design, 64, 1));
  ASSERT_FALSE(full.aborted);
  ASSERT_GT(full.events_processed, 256u);

  for (int shards : {1, 2}) {
    sim::SimOptions options = base_options(compiled.design, 64, shards);
    set(options);
    sim::SimResult capped = engine.run(options);
    ASSERT_TRUE(capped.aborted) << shards << " shards";
    EXPECT_EQ(capped.abort_reason, sim::to_string(cause))
        << shards << " shards";
    EXPECT_LT(capped.events_processed, full.events_processed)
        << shards << " shards";
    EXPECT_EQ(capped.status().exit_code(), 10);
    ASSERT_EQ(capped.shard_forensics.size(),
              static_cast<std::size_t>(shards));
    std::uint64_t events = 0;
    for (const sim::ShardForensics& f : capped.shard_forensics) {
      EXPECT_FALSE(f.summary().empty());
      events += f.events_processed;
    }
    EXPECT_EQ(events, capped.events_processed) << shards << " shards";
    EXPECT_NE(capped.summary().find("ABORTED"), std::string::npos);
  }
}

TEST(SimGuard, WallClockBudgetAbortsBothRunShapes) {
  expect_budget_abort(
      [](sim::SimOptions& o) { o.wall_clock_budget_ms = 1e-6; },
      sim::StopCause::kWallClock);
}

TEST(SimGuard, RssBudgetAbortsBothRunShapes) {
  expect_budget_abort([](sim::SimOptions& o) { o.rss_budget_mb = 1; },
                      sim::StopCause::kRss);
}

TEST(SimGuard, BudgetsOffByDefault) {
  driver::CompileResult compiled = compile_pipeline();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result = engine.run(base_options(compiled.design, 32, 2));
  EXPECT_FALSE(result.aborted);
  EXPECT_TRUE(result.abort_reason.empty());
  EXPECT_TRUE(result.status().is_ok());
  // Forensics are collected on healthy runs too (one snapshot per shard);
  // a finished run has drained its queues and mailboxes.
  ASSERT_EQ(result.shard_forensics.size(), 2u);
  std::uint64_t events = 0;
  for (const sim::ShardForensics& f : result.shard_forensics) {
    EXPECT_EQ(f.queue_depth, 0u);
    EXPECT_EQ(f.mailbox_depth, 0u);
    events += f.events_processed;
  }
  EXPECT_EQ(events, result.events_processed);
}

}  // namespace
}  // namespace tydi
