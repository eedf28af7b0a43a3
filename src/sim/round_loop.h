// The synchronous round loop every per-trial executor runs on.
//
// RoundLoop::Run holds the only copy of the run semantics: synchronous
// rounds resolved on C channels by mac::Resolver, the run solved in the
// first round with a lone *delivered* transmission on the primary channel
// (Section 3 of the paper). Around that core it owns every per-run layer:
// the crash-stop sweep and fault injector (mac/faults.h), adversary
// planning and observation (adversary/adversary.h), the robust wrapper's
// epochs, backoff pauses, confirmation echoes, hardened chaff and jam
// credit, the stall and phase watchdogs (robust/robust.h), the
// ProtocolAssumptionViolation abort-or-retry rule, and the RunResult
// epilogue.
//
// How node state advances is the executor's part, a NodeStepper:
// Engine::Run adapts protocol coroutines (sim/engine.h), BatchEngine::Run
// adapts a StepProgram (sim/batch_engine.h). Both see one data layout —
// dense alive-ordered arrays: actions[k] and feedback[k] belong to node
// alive[k], and alive is ascending — so the resolver touches channels and
// draws faults in the same order whichever executor drives the loop.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mac/channel.h"
#include "mac/resolver.h"
#include "sim/engine.h"
#include "sim/step_program.h"

namespace crmc::sim {

class NodeStepper {
 public:
  virtual ~NodeStepper() = default;

  // (Re)builds node state for one epoch; per-node streams derive from
  // `epoch_seed`. Appends to `alive` (which arrives empty) the ascending
  // ids of the nodes that act in the epoch's first round. Nodes with
  // crashed[i] != 0 crashed in an earlier epoch and never restart.
  virtual void BeginEpoch(std::uint64_t epoch_seed,
                          std::span<const std::uint8_t> crashed,
                          std::vector<NodeId>& alive) = 0;

  // Writes actions[k], the action node alive[k] takes in round `round`.
  virtual void Emit(std::int64_t round, std::span<const NodeId> alive,
                    std::span<mac::Action> actions) = 0;

  // Hands feedback[k] to node alive[k] and sets finished[k] = 1 (it
  // arrives zeroed) when that node's protocol terminated. `round` is the
  // index of the round the nodes act in next, engine-fabricated rounds
  // included. May throw support::ProtocolAssumptionViolation.
  virtual void Advance(std::int64_t round, std::span<const NodeId> alive,
                       std::span<const mac::Action> actions,
                       std::span<const mac::Feedback> feedback,
                       std::span<std::uint8_t> finished) = 0;

  // Optional fused round: Emit, resolution and Advance in one pass with
  // no resolver (StepProgram::FastRound). The loop offers it only when
  // feedback is a pure function of the actions and nobody reads the
  // resolver: strong CD, no fault injection, no trace, no observing
  // adversary and no robust layer. `adv_jams` is the round's planned jam
  // set; a stepper must decline any round it cannot represent (FastRound
  // never applies jams). On true, node_tx/finished/*effects describe the
  // round exactly as the materialized path would have.
  virtual bool fuses() const { return false; }
  virtual bool FusedRound(std::int64_t round, std::span<const NodeId> alive,
                          std::span<const mac::ChannelId> adv_jams,
                          std::span<std::int64_t> node_tx,
                          std::span<std::uint8_t> finished,
                          FastRoundEffects* effects) {
    (void)round;
    (void)alive;
    (void)adv_jams;
    (void)node_tx;
    (void)finished;
    (void)effects;
    return false;
  }
};

class RoundLoop {
 public:
  // Runs one execution of `config` with `stepper` advancing node state.
  // The caller validated `config`; `population` is ValidateEngineConfig's
  // result. All scratch (resolver, alive/action/feedback arrays, per-node
  // counters) is kept across calls, so a sweep on one RoundLoop allocates
  // no loop scratch after its first run of a shape. Not reentrant.
  RunResult Run(const EngineConfig& config, std::int64_t population,
                NodeStepper& stepper);

 private:
  std::optional<mac::Resolver> resolver_;
  std::vector<NodeId> alive_;
  std::vector<mac::Action> actions_;
  std::vector<mac::Feedback> feedback_;
  // Engine-fabricated rounds (echoes, chaff, backoff pauses) stage here so
  // the protocol round held in actions_/feedback_ survives for Advance.
  std::vector<mac::Action> fab_actions_;
  std::vector<mac::Feedback> fab_feedback_;
  std::vector<std::uint8_t> finished_;
  // Crash-stop is permanent across robust epochs.
  std::vector<std::uint8_t> crashed_;
  std::vector<std::int64_t> node_tx_;
};

// Fills result's energy summaries (max and mean per-node transmissions)
// from one run's per-node counts, and copies them into
// result.node_transmissions when `record` is set. Shared by RoundLoop's
// epilogue and the trial engine's lane retirement.
void SummarizeNodeTransmissions(std::span<const std::int64_t> node_tx,
                                bool record, RunResult& result);

}  // namespace crmc::sim
