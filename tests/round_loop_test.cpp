// Loop-level tests for sim::RoundLoop, driven by a scripted NodeStepper
// instead of a real protocol: every expected round count below follows by
// hand from the script, the robust backoff schedule (min(cap, base <<
// (epoch - 1)) idle rounds before epoch >= 1) and the loop's stopping
// rules. Covered: max_rounds landing inside a backoff pause, the
// ProtocolAssumptionViolation propagate / retry / abort rule, the deluded
// exit with every node crashed, the confirmation echo and the round index
// Advance sees after it, and the fused-round hook and its gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "adversary/adversary.h"
#include "mac/channel.h"
#include "sim/engine.h"
#include "sim/round_loop.h"
#include "support/assert.h"

namespace crmc {
namespace {

using mac::Action;

// Node 0 transmits on the primary channel in every protocol round when
// node0_transmits is set; every other node (and node 0 otherwise)
// listens there. The stepper records each call the loop makes.
struct ScriptedStepper final : sim::NodeStepper {
  bool node0_transmits = false;
  bool finish_at_first_advance = false;
  bool throw_in_advance = false;
  // Fused-round script: offered iff offer_fused; declines round
  // decline_fused_round and reports a lone primary delivery by the first
  // alive node in round fused_solve_round. Other fused rounds are silent.
  bool offer_fused = false;
  std::int64_t decline_fused_round = -1;
  std::int64_t fused_solve_round = -1;

  std::int32_t epochs_begun = 0;
  std::vector<std::int64_t> emit_rounds;
  std::vector<std::int64_t> advance_rounds;
  std::vector<std::int64_t> fused_calls;

  void BeginEpoch(std::uint64_t, std::span<const std::uint8_t> crashed,
                  std::vector<sim::NodeId>& alive) override {
    ++epochs_begun;
    for (std::size_t i = 0; i < crashed.size(); ++i) {
      if (!crashed[i]) alive.push_back(static_cast<sim::NodeId>(i));
    }
  }

  void Emit(std::int64_t round, std::span<const sim::NodeId> alive,
            std::span<Action> actions) override {
    emit_rounds.push_back(round);
    for (std::size_t k = 0; k < alive.size(); ++k) {
      actions[k] = node0_transmits && alive[k] == 0
                       ? Action::Transmit(mac::kPrimaryChannel)
                       : Action::Listen(mac::kPrimaryChannel);
    }
  }

  void Advance(std::int64_t round, std::span<const sim::NodeId>,
               std::span<const Action>, std::span<const mac::Feedback>,
               std::span<std::uint8_t> finished) override {
    advance_rounds.push_back(round);
    if (throw_in_advance) {
      throw support::ProtocolAssumptionViolation("scripted violation");
    }
    if (finish_at_first_advance) {
      std::fill(finished.begin(), finished.end(), std::uint8_t{1});
    }
  }

  bool fuses() const override { return offer_fused; }

  bool FusedRound(std::int64_t round, std::span<const sim::NodeId> alive,
                  std::span<const mac::ChannelId>,
                  std::span<std::int64_t> node_tx, std::span<std::uint8_t>,
                  sim::FastRoundEffects* effects) override {
    fused_calls.push_back(round);
    if (round == decline_fused_round) return false;
    if (round == fused_solve_round) {
      ++node_tx[static_cast<std::size_t>(alive[0])];
      effects->transmissions = 1;
      effects->lone_deliveries = 1;
      effects->primary_lone_delivered = true;
    }
    return true;
  }
};

sim::EngineConfig TwoNodes(std::int64_t max_rounds) {
  sim::EngineConfig config;
  config.num_active = 2;
  config.channels = 4;
  config.seed = 7;
  config.max_rounds = max_rounds;
  return config;
}

sim::RunResult RunScripted(const sim::EngineConfig& config,
                           ScriptedStepper& stepper) {
  sim::RoundLoop loop;
  return loop.Run(config, sim::ValidateEngineConfig(config), stepper);
}

// Round 0 is epoch 0's only protocol round: both nodes listen (no solve)
// and terminate — a deluded exit with live nodes, so the epoch retries.
// Epoch 1's pause is min(256, 4 << 0) = 4 rounds, but only rounds 1 and 2
// fit under max_rounds = 3; epoch 1 is never built.
TEST(RoundLoop, MaxRoundsInsideBackoffPauseTimesOut) {
  sim::EngineConfig config = TwoNodes(3);
  config.robust.enabled = true;
  config.robust.backoff_base = 4;
  ScriptedStepper stepper;
  stepper.finish_at_first_advance = true;
  const sim::RunResult r = RunScripted(config, stepper);
  EXPECT_EQ(r.rounds_executed, 3);
  EXPECT_EQ(r.rounds_executed, config.max_rounds);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.all_terminated);
  EXPECT_FALSE(r.solved);
  EXPECT_FALSE(r.wedged);  // round 0 terminated both nodes: stall streak 0
  EXPECT_EQ(r.backoff_rounds, 2);
  EXPECT_EQ(r.epochs_used, 2);
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(stepper.epochs_begun, 1);
  EXPECT_EQ(stepper.emit_rounds, (std::vector<std::int64_t>{0}));
}

// No fault or adversary layer: a violation is a protocol bug and must
// escape the loop, robust layer or not.
TEST(RoundLoop, AdvanceViolationPropagatesWithoutAdversarialLayer) {
  for (const bool robust : {false, true}) {
    sim::EngineConfig config = TwoNodes(100);
    config.robust.enabled = robust;
    ScriptedStepper stepper;
    stepper.throw_in_advance = true;
    EXPECT_THROW(RunScripted(config, stepper),
                 support::ProtocolAssumptionViolation)
        << "robust=" << robust;
    EXPECT_EQ(stepper.advance_rounds, (std::vector<std::int64_t>{1}));
  }
}

// With an active fault layer the violation is data. The scripted nodes
// only listen, so the jams change no round count. Without the robust
// layer round 0 aborts the run. With max_epochs = 3 and backoff_base = 1:
// epoch 0 fails at round 0, a 1-round pause (round 1), epoch 1 fails at
// round 2, a 2-round pause (rounds 3-4), and epoch 2 — the last permitted
// — fails at round 5 and aborts.
TEST(RoundLoop, AdvanceViolationRetriesWhileCanRetryThenAborts) {
  sim::EngineConfig config = TwoNodes(100);
  config.faults.jam_rate = 0.5;
  {
    ScriptedStepper stepper;
    stepper.throw_in_advance = true;
    const sim::RunResult r = RunScripted(config, stepper);
    EXPECT_TRUE(r.assumption_violated);
    EXPECT_EQ(r.rounds_executed, 1);
    EXPECT_EQ(r.epochs_used, 0);
    EXPECT_FALSE(r.all_terminated);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(stepper.epochs_begun, 1);
  }
  config.robust.enabled = true;
  config.robust.max_epochs = 3;
  config.robust.backoff_base = 1;
  ScriptedStepper stepper;
  stepper.throw_in_advance = true;
  const sim::RunResult r = RunScripted(config, stepper);
  EXPECT_TRUE(r.assumption_violated);
  EXPECT_EQ(r.rounds_executed, 6);
  EXPECT_EQ(r.backoff_rounds, 3);
  EXPECT_EQ(r.epochs_used, 3);
  EXPECT_EQ(r.retries, 2);
  EXPECT_FALSE(r.all_terminated);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(stepper.epochs_begun, 3);
  EXPECT_EQ(stepper.emit_rounds, (std::vector<std::int64_t>{0, 2, 5}));
}

// crash_rate = 1 crashes both nodes in round 0's sweep, before anyone
// acts: the epoch ends with nobody alive and nothing solved, but nobody is
// left to restart, so the deluded exit does not retry.
TEST(RoundLoop, DeludedExitWithEveryNodeCrashedDoesNotRetry) {
  sim::EngineConfig config = TwoNodes(100);
  config.faults.crash_rate = 1.0;
  config.robust.enabled = true;
  ScriptedStepper stepper;
  const sim::RunResult r = RunScripted(config, stepper);
  EXPECT_EQ(r.rounds_executed, 0);
  EXPECT_EQ(r.crashed_nodes, 2);
  EXPECT_EQ(r.epochs_used, 1);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.backoff_rounds, 0);
  EXPECT_FALSE(r.solved);
  EXPECT_FALSE(r.all_terminated);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(stepper.epochs_begun, 1);
  EXPECT_TRUE(stepper.emit_rounds.empty());
}

// A scripted jam on the primary channel in round 0 suppresses node 0's
// lone transmission, so the round is a candidate: the echo in round 1
// (budget spent, no jam) delivers and solves. Advance then sees round 2,
// the round after the echo. Round 2 is a clean lone delivery again, and
// max_rounds = 3 ends the run.
TEST(RoundLoop, ConfirmationEchoSolvesAndAdvanceSeesTheNextRound) {
  sim::EngineConfig config = TwoNodes(3);
  config.stop_when_solved = false;
  config.robust.enabled = true;
  config.adversary.kind = adversary::Kind::kScripted;
  config.adversary.budget = 1;
  config.adversary.script = {adversary::ScriptEntry{0, mac::kPrimaryChannel}};
  config.record_node_transmissions = true;
  ScriptedStepper stepper;
  stepper.node0_transmits = true;
  const sim::RunResult r = RunScripted(config, stepper);
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(r.confirmed);
  EXPECT_EQ(r.solved_round, 1);
  EXPECT_EQ(std::vector<std::int64_t>(r.all_solved_rounds.begin(),
                                      r.all_solved_rounds.end()),
            (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(r.confirm_rounds, 1);
  EXPECT_EQ(r.adv_jams_spent, 1);
  EXPECT_EQ(r.adv_jams_effective, 1);
  EXPECT_EQ(r.adv_jams_echo, 0);
  EXPECT_EQ(r.rounds_executed, 3);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.total_transmissions, 3);
  EXPECT_EQ(r.node_transmissions, (std::vector<std::int64_t>{3, 0}));
  EXPECT_EQ(r.max_node_transmissions, 3);
  EXPECT_DOUBLE_EQ(r.mean_node_transmissions, 1.5);
  EXPECT_EQ(stepper.emit_rounds, (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(stepper.advance_rounds, (std::vector<std::int64_t>{2, 3}));
}

// Round 0 fuses (silent), round 1 is declined and runs materialized
// (Emit, then Advance seeing round 2), round 2 fuses and solves. Both
// listen-only rounds add to the stall streak; the solving round ends the
// run before its streak update.
TEST(RoundLoop, FusedRoundHookAndMaterializedFallback) {
  const sim::EngineConfig config = TwoNodes(10);
  ScriptedStepper stepper;
  stepper.offer_fused = true;
  stepper.decline_fused_round = 1;
  stepper.fused_solve_round = 2;
  const sim::RunResult r = RunScripted(config, stepper);
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.solved_round, 2);
  EXPECT_EQ(r.rounds_executed, 3);
  EXPECT_EQ(r.fused_rounds, 2);
  EXPECT_EQ(r.total_transmissions, 1);
  EXPECT_EQ(r.stall_rounds, 2);
  EXPECT_EQ(stepper.fused_calls, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(stepper.emit_rounds, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(stepper.advance_rounds, (std::vector<std::int64_t>{2}));
}

// A trace or an active fault layer needs the resolver every round, so the
// loop never offers the hook: all 10 rounds materialize and time out.
TEST(RoundLoop, FusedRoundNotOfferedWhenResolverIsNeeded) {
  sim::EngineConfig traced = TwoNodes(10);
  traced.record_trace = true;
  sim::EngineConfig faulty = TwoNodes(10);
  faulty.faults.jam_rate = 0.5;
  for (const sim::EngineConfig& config : {traced, faulty}) {
    ScriptedStepper stepper;
    stepper.offer_fused = true;
    const sim::RunResult r = RunScripted(config, stepper);
    EXPECT_EQ(r.rounds_executed, 10);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.fused_rounds, 0);
    EXPECT_TRUE(stepper.fused_calls.empty());
    EXPECT_EQ(stepper.emit_rounds.size(), 10u);
  }
}

}  // namespace
}  // namespace crmc
