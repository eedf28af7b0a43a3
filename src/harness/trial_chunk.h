// Internal: per-worker chunk execution shared by every trial executor.
//
// RunTrials' inline single-thread path, the legacy per-call spawn executor
// (RunTrialsSpawn), and the persistent SweepExecutor all run the same unit
// of work — "trials [first, first + count) of job X" — with the same
// per-worker cached engines and program instance. Factoring the chunk
// runner out keeps the three executors bit-identical by construction:
// every trial's EngineConfig (seed = base_seed + t included) is built from
// the spec alone, never from worker or executor state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "sim/batch_engine.h"
#include "sim/trial_engine.h"

namespace crmc::harness::internal {

// Dispatch decisions made once per job (they depend only on spec/handle).
struct TrialJobPlan {
  bool batch = false;  // step-program engines (batch or trial-parallel)
  bool lanes = false;  // trial-parallel executor with lane_width chunks
  std::int32_t stride = 1;  // chunk size workers claim (lane_width if lanes)
  // name() of the step program PlanTrialJob probed for a trial-program twin
  // (batch runs with lane_width > 1 only; empty otherwise).
  std::string program_name;
};

TrialJobPlan PlanTrialJob(const TrialSpec& spec,
                          const ProtocolHandle& protocol, bool keep_runs);

// One worker's reusable scratch. The program instance and the engines are
// cached per job (keyed by job_id) so a worker that stays on one sweep
// point is allocation-free after its first chunk. The trial engine is
// re-created on every job switch: it caches the trial-program twin by
// StepProgram address, and a recycled allocation could otherwise alias a
// prior job's program.
struct TrialWorkerCache {
  std::uint64_t job_id = ~std::uint64_t{0};
  std::unique_ptr<sim::StepProgram> program;
  sim::BatchEngine batch_engine;
  std::optional<sim::TrialBatchEngine> trial_engine;
  std::vector<std::uint64_t> seeds;
};

// Runs trials [first, first + count) of the job into out[0, count).
// `out` must be the runs slice for exactly those trials.
void RunTrialChunk(const TrialSpec& spec, const ProtocolHandle& protocol,
                   const TrialJobPlan& plan, std::uint64_t job_id,
                   TrialWorkerCache& cache, std::int32_t first,
                   std::int32_t count, std::span<sim::RunResult> out);

// Folds per-trial results into the TrialSetResult aggregates (shared by
// RunTrials and SweepExecutor ticket completion). Consumes `runs`; they are
// moved into the result iff keep_runs.
TrialSetResult AggregateTrialRuns(std::vector<sim::RunResult>&& runs,
                                  bool keep_runs);

// Fresh process-unique job id for executors that need one outside the
// SweepExecutor queue (inline and spawn paths).
std::uint64_t NextTrialJobId();

}  // namespace crmc::harness::internal
