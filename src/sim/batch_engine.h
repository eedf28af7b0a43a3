// Columnar fast-path executor for step programs.
//
// BatchEngine::Run executes the same model as Engine::Run (sim/engine.h)
// on the same round loop (sim/round_loop.h) but drives a StepProgram
// (sim/step_program.h) instead of per-node coroutines: node state lives in
// flat arrays, each round is two linear sweeps over the alive prefix, and
// only alive nodes' actions are handed to mac::Resolver — whose
// touched_channels scratch keeps resolution O(alive) per round instead of
// O(num_active) or O(C). On pristine strong-CD untraced rounds the program
// may fuse a whole round (StepProgram::FastRound) and skip the resolver.
//
// The engine instance owns all scratch (RNG columns and the round loop
// with its action/feedback buffers and resolver) and reuses it across Run
// calls, so a Monte-Carlo sweep of trials is allocation-free after the
// first trial of a given shape. One instance per thread; Run is not
// reentrant.
//
// For programs with identical_draw_order() (all shipped ones), the
// RunResult is bit-exact against Engine::Run on the same EngineConfig:
// solved/solved_round/all_solved_rounds, rounds_executed, timed_out,
// all_terminated, total_transmissions, the node-transmission summaries,
// active_counts and trace all match. node_reports stays empty — step
// programs carry no per-node instrumentation — and the coroutine engine's
// auto-beacon (wakeup transform) mode has no step-program counterpart.
// Step programs are anonymous: Run samples no unique IDs (no result field
// depends on Engine::Run's ID stream), so a protocol that reads
// NodeContext::unique_id() must stay coroutine-only.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "sim/round_loop.h"
#include "sim/step_program.h"
#include "support/rng.h"

namespace crmc::sim {

class BatchEngine {
 public:
  // Runs one execution of `program` under `config`. The program is Reset
  // at the start of the run; it must outlive the call.
  RunResult Run(const EngineConfig& config, StepProgram& program);

  // One-shot convenience mirroring Engine::Run (pays the scratch
  // allocations every call; sweeps should hold a BatchEngine instead).
  static RunResult RunOnce(const EngineConfig& config, StepProgram& program) {
    BatchEngine engine;
    return engine.Run(config, program);
  }

  // Fused rounds (StepProgram::FastRound) skip the Action/Feedback arrays
  // and the resolver on pristine strong-CD untraced rounds. On by default;
  // off forces the generic materialized path on every round — the results
  // are bit-identical either way (the parity suite runs both), this exists
  // for that suite and for debugging.
  void set_fused_rounds(bool enabled) { fused_rounds_enabled_ = enabled; }

 private:
  RoundLoop loop_;
  std::vector<support::RandomSource> rng_;
  bool fused_rounds_enabled_ = true;
};

}  // namespace crmc::sim
