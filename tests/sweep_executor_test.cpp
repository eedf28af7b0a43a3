// Persistent sweep-executor suite: the work-stealing pool behind RunTrials
// (harness/sweep_executor.h) against the inline path and the legacy
// per-call spawn executor.
//
// The contract under test is bit-identical statistics: trial t always runs
// with seed base_seed + t from an EngineConfig built from the spec alone,
// so which executor (inline / spawn / pool), thread count, or claim order
// produced a result must be invisible in the aggregates. Plus the RunTrials
// argument contract: --lanes validation, the xoshiro+lanes rejection on the
// calling thread, the twin-less lane-width stderr notice, and worker
// exceptions surfacing from Wait instead of terminating the pool.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/two_active.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/sweep_executor.h"
#include "sim/step_program.h"
#include "support/rng.h"

namespace crmc::harness {
namespace {

void ExpectSameTrialSet(const TrialSetResult& want, const TrialSetResult& got,
                        const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(want.solved_rounds, got.solved_rounds);
  EXPECT_EQ(want.unsolved, got.unsolved);
  EXPECT_EQ(want.timed_out, got.timed_out);
  EXPECT_EQ(want.aborted, got.aborted);
  EXPECT_EQ(want.wedged, got.wedged);
  EXPECT_EQ(want.deluded, got.deluded);
  EXPECT_EQ(want.confirmed, got.confirmed);
  EXPECT_EQ(want.epochs_used, got.epochs_used);
  EXPECT_EQ(want.retries, got.retries);
  EXPECT_EQ(want.faults_injected, got.faults_injected);
  EXPECT_EQ(want.crashed_nodes, got.crashed_nodes);
  EXPECT_EQ(want.adv_jams_spent, got.adv_jams_spent);
  EXPECT_EQ(want.rounds_total, got.rounds_total);
  EXPECT_EQ(want.trial_lanes_peak, got.trial_lanes_peak);
  EXPECT_EQ(want.trial_fallbacks, got.trial_fallbacks);
  EXPECT_EQ(want.fused_rounds_total, got.fused_rounds_total);
  EXPECT_DOUBLE_EQ(want.summary.mean, got.summary.mean);
  EXPECT_EQ(want.summary.max, got.summary.max);
}

TrialSpec TwoActiveSpec() {
  TrialSpec spec;
  spec.population = 256;
  spec.num_active = 2;
  spec.channels = 16;
  spec.rng = support::RngKind::kPhilox;
  return spec;
}

ProtocolHandle TwoActiveHandle() {
  return HandleFor(AlgorithmByName("two_active"));
}

// NOTE: this test must run before any other multi-lane call that takes the
// per-trial path — the notice is printed once per protocol label per
// process, and a coroutine-only handle uses the shared label. It races the
// FIRST emission: eight threads hit MaybeWarnLaneFallback simultaneously,
// and exactly one complete notice line may reach stderr (the historical
// unlocked shape let two first-warners interleave their fragments).
TEST(SweepExecutor, TwinlessLaneNoticeEmittedExactlyOnceAcrossThreads) {
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 4;
  const ProtocolHandle coroutine_only(core::MakeTwoActive());
  constexpr std::int32_t kThreads = 8;
  ::testing::internal::CaptureStderr();
  {
    std::barrier gate(kThreads);
    std::vector<std::jthread> hammer;
    hammer.reserve(kThreads);
    for (std::int32_t t = 0; t < kThreads; ++t) {
      hammer.emplace_back([&] {
        gate.arrive_and_wait();
        const TrialSetResult r =
            RunTrials(spec, coroutine_only, 4, /*keep_runs=*/false,
                      /*threads=*/1);
        EXPECT_EQ(r.trial_lanes_peak, 0);  // per-trial path throughout
      });
    }
  }
  const std::string notice = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(notice.find("note: --lanes 4"), std::string::npos) << notice;
  EXPECT_NE(notice.find("no trial-parallel twin"), std::string::npos)
      << notice;
  EXPECT_NE(notice.find("(coroutine-engine run)"), std::string::npos)
      << notice;
  // Exactly one emission, as one unbroken line: a single trailing newline
  // and no second "note:" fragment anywhere.
  EXPECT_EQ(std::count(notice.begin(), notice.end(), '\n'), 1) << notice;
  EXPECT_EQ(notice.rfind("note:"), 0u) << notice;
  EXPECT_EQ(notice.back(), '\n') << notice;
}

TEST(SweepExecutor, TwinlessLaneNoticeDedupsAndTwinnedRunsStaySilent) {
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 4;
  const ProtocolHandle coroutine_only(core::MakeTwoActive());
  // Warm the label ourselves (ctest runs each case as its own process, so
  // the threaded first-emission test may not have preceded us here); the
  // first call may print, every later one must not.
  ::testing::internal::CaptureStderr();
  RunTrials(spec, coroutine_only, 4, false, 1);
  ::testing::internal::GetCapturedStderr();
  ::testing::internal::CaptureStderr();
  const TrialSetResult again = RunTrials(spec, coroutine_only, 8, false, 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(again.trial_lanes_peak, 0);

  // A twinned protocol with lanes engaged never warns.
  ::testing::internal::CaptureStderr();
  const TrialSetResult laned = RunTrials(spec, TwoActiveHandle(), 8, false, 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(laned.trial_lanes_peak, 4);
}

TEST(SweepExecutor, PoolMatchesSpawnAndInlineBitExact) {
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 8;
  const ProtocolHandle handle = TwoActiveHandle();
  constexpr std::int32_t kTrials = 97;  // not a multiple of the lane width
  const TrialSetResult inline_run =
      RunTrials(spec, handle, kTrials, /*keep_runs=*/false, /*threads=*/1);
  const TrialSetResult pool_run =
      RunTrials(spec, handle, kTrials, /*keep_runs=*/false, /*threads=*/3);
  const TrialSetResult spawn_run =
      RunTrialsSpawn(spec, handle, kTrials, /*keep_runs=*/false,
                     /*threads=*/3);
  ExpectSameTrialSet(inline_run, pool_run, "inline-vs-pool");
  ExpectSameTrialSet(inline_run, spawn_run, "inline-vs-spawn");
  EXPECT_EQ(inline_run.trial_lanes_peak, 8);
  EXPECT_EQ(inline_run.trial_fallbacks, 0);
  // two_active lanes fuse every executed round.
  EXPECT_EQ(inline_run.fused_rounds_total, inline_run.rounds_total);
}

TEST(SweepExecutor, WholeGridEnqueueMatchesPerPointRuns) {
  // The bench usage pattern: enqueue every grid point up front, wait the
  // tickets in order — lanes from adjacent points backfill retiring
  // workers. Each point must still aggregate exactly like a solo run.
  const ProtocolHandle handle = TwoActiveHandle();
  std::vector<TrialSpec> grid;
  for (const std::int32_t channels : {1, 2, 4, 16, 64}) {
    TrialSpec spec = TwoActiveSpec();
    spec.channels = channels;
    spec.lane_width = 8;
    grid.push_back(spec);
  }
  std::vector<SweepExecutor::Ticket> tickets;
  tickets.reserve(grid.size());
  for (const TrialSpec& spec : grid) {
    tickets.push_back(
        SweepExecutor::Global().Enqueue(spec, handle, 64, false, 0));
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point=" << i);
    const TrialSetResult want =
        RunTrials(grid[i], handle, 64, /*keep_runs=*/false, /*threads=*/1);
    ExpectSameTrialSet(want, tickets[i].Wait(), "grid-vs-inline");
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(SweepExecutor, KeepRunsThroughPool) {
  TrialSpec spec = TwoActiveSpec();
  const ProtocolHandle handle = TwoActiveHandle();
  const TrialSetResult want =
      RunTrials(spec, handle, 33, /*keep_runs=*/true, /*threads=*/1);
  const TrialSetResult got =
      RunTrials(spec, handle, 33, /*keep_runs=*/true, /*threads=*/3);
  ASSERT_EQ(want.runs.size(), 33u);
  ASSERT_EQ(got.runs.size(), 33u);
  for (std::size_t t = 0; t < want.runs.size(); ++t) {
    EXPECT_EQ(want.runs[t].solved, got.runs[t].solved);
    EXPECT_EQ(want.runs[t].solved_round, got.runs[t].solved_round);
    EXPECT_EQ(want.runs[t].rounds_executed, got.runs[t].rounds_executed);
  }
}

TEST(SweepExecutor, FallbackCountersSurfaceAtHarnessLevel) {
  // Faults force the trial engine's per-lane fallback: every trial must be
  // flagged, and the statistics still match the inline run.
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 8;
  spec.max_rounds = 500;
  spec.faults.jam_rate = 0.15;
  const ProtocolHandle handle = TwoActiveHandle();
  const TrialSetResult want = RunTrials(spec, handle, 48, false, 1);
  const TrialSetResult got = RunTrials(spec, handle, 48, false, 3);
  ExpectSameTrialSet(want, got, "faulty-inline-vs-pool");
  EXPECT_EQ(got.trial_fallbacks, 48);
  EXPECT_EQ(got.trial_lanes_peak, 0);
}

// ---------------------------------------------------------------------------
// Argument contract.
// ---------------------------------------------------------------------------

TEST(SweepExecutor, RejectsNonPositiveLaneWidth) {
  const ProtocolHandle handle = TwoActiveHandle();
  for (const std::int32_t width : {0, -3}) {
    TrialSpec spec = TwoActiveSpec();
    spec.lane_width = width;
    try {
      RunTrials(spec, handle, 4);
      FAIL() << "expected std::invalid_argument for lane_width " << width;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--lanes"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepExecutor, RejectsXoshiroLanesOnCallingThread) {
  // Pre-pool, this config threw inside a spawned worker (terminate); the
  // validation now happens before any dispatch, for every thread count.
  TrialSpec spec = TwoActiveSpec();
  spec.rng = support::RngKind::kXoshiro;
  spec.lane_width = 8;
  const ProtocolHandle handle = TwoActiveHandle();
  for (const std::int32_t threads : {1, 4}) {
    try {
      RunTrials(spec, handle, 16, false, threads);
      FAIL() << "expected std::invalid_argument (threads=" << threads << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("philox"), std::string::npos)
          << e.what();
    }
  }
}

// A protocol without a trial-program twin takes the per-trial path at any
// lane width, so --lanes is legal there under xoshiro: the statistics match
// lane width 1 bit for bit, and the notice names the protocol once.
TEST(SweepExecutor, TwinlessLanesRunPerTrialUnderXoshiro) {
  TrialSpec spec;
  spec.population = 1024;
  spec.num_active = 8;
  spec.channels = 32;
  spec.rng = support::RngKind::kXoshiro;
  const ProtocolHandle handle = HandleFor(AlgorithmByName("general"));
  const TrialSetResult want = RunTrials(spec, handle, 40, false, 1);
  spec.lane_width = 8;
  ::testing::internal::CaptureStderr();
  const TrialSetResult inline_run = RunTrials(spec, handle, 40, false, 1);
  const TrialSetResult pooled = RunTrials(spec, handle, 40, false, 3);
  const std::string notice = ::testing::internal::GetCapturedStderr();
  ExpectSameTrialSet(want, inline_run, "lanes-inline");
  ExpectSameTrialSet(want, pooled, "lanes-pool");
  EXPECT_EQ(notice,
            "note: --lanes 8 requested but general has no trial-parallel "
            "twin; trials run on the per-trial path\n");
}

TEST(SweepExecutor, WorkerExceptionsSurfaceFromWait) {
  // A config the engines reject (num_active == 0) reaches the workers; the
  // pool must stay alive and rethrow on the waiting thread.
  TrialSpec spec = TwoActiveSpec();
  spec.num_active = 0;
  const ProtocolHandle handle = TwoActiveHandle();
  EXPECT_THROW(RunTrials(spec, handle, 8, false, 2), std::invalid_argument);
  // The pool survives the failure and keeps serving jobs.
  const TrialSetResult after =
      RunTrials(TwoActiveSpec(), handle, 16, false, 2);
  EXPECT_EQ(after.solved_rounds.size() + static_cast<std::size_t>(after.unsolved),
            16u);
}

}  // namespace
}  // namespace crmc::harness
