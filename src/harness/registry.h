// Name-indexed registry of all contention-resolution algorithms in the
// library, for examples and cross-algorithm benches.
#pragma once

#include <string>
#include <vector>

#include "harness/runner.h"
#include "sim/engine.h"
#include "sim/step_program.h"

namespace crmc::harness {

struct AlgorithmInfo {
  std::string name;
  std::string description;
  // Model requirements / caveats surfaced in example output.
  bool requires_two_active = false;  // TwoActive is specified for |A| = 2
  bool oracle = false;               // cheats (knows |A|)
  bool self_terminating = false;     // nodes detect completion themselves
  sim::ProtocolFactory (*make)() = nullptr;
  // Columnar twin for the BatchEngine fast path; null when the algorithm
  // has no step program (it then always runs on the coroutine engine).
  // Step programs are anonymous, so a protocol that reads
  // NodeContext::unique_id() must leave this null.
  sim::StepProgramFactory (*make_step)() = nullptr;
};

// All registered algorithms (paper algorithms first, then baselines).
const std::vector<AlgorithmInfo>& Algorithms();

// Lookup by name; throws std::invalid_argument listing valid names.
const AlgorithmInfo& AlgorithmByName(const std::string& name);

// The runnable handle for an algorithm: its coroutine factory plus, when
// registered, its step-program twin (enabling the RunTrials fast path).
ProtocolHandle HandleFor(const AlgorithmInfo& info);

}  // namespace crmc::harness
