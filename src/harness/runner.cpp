#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/sweep_executor.h"
#include "harness/trial_chunk.h"
#include "sim/batch_engine.h"
#include "sim/trial_engine.h"
#include "support/assert.h"

namespace crmc::harness {
namespace internal {

TrialJobPlan PlanTrialJob(const TrialSpec& spec,
                          const ProtocolHandle& protocol, bool keep_runs) {
  TrialJobPlan plan;
  plan.batch = protocol.step_program != nullptr && spec.use_batch_engine &&
               !keep_runs;
  // Trial-parallel lanes: workers claim blocks of lane_width consecutive
  // trials and run them as one lockstep chunk. Block boundaries only group
  // work — every trial's result is a pure function of its per-trial config,
  // so statistics are bit-identical across any threads x lane-width split.
  // Only a protocol with a trial-program twin takes the lane path; any other
  // lane_width > 1 request runs per trial, whatever the rng.
  if (plan.batch && spec.lane_width > 1) {
    const std::unique_ptr<sim::StepProgram> probe = protocol.step_program();
    plan.lanes = probe->MakeTrialProgram() != nullptr;
    plan.program_name = probe->name();
  }
  plan.stride = plan.lanes ? spec.lane_width : 1;
  return plan;
}

void RunTrialChunk(const TrialSpec& spec, const ProtocolHandle& protocol,
                   const TrialJobPlan& plan, std::uint64_t job_id,
                   TrialWorkerCache& cache, std::int32_t first,
                   std::int32_t count, std::span<sim::RunResult> out) {
  if (cache.job_id != job_id) {
    cache.job_id = job_id;
    cache.program = plan.batch ? protocol.step_program() : nullptr;
    cache.batch_engine.set_fused_rounds(spec.fused_rounds);
    if (plan.lanes) {
      // Fresh engine per job, not just per stride change: the trial engine
      // caches the twin by StepProgram address, and a recycled allocation
      // from a finished job could alias the new program.
      cache.trial_engine.emplace(plan.stride);
      cache.trial_engine->set_fused_rounds(spec.fused_rounds);
    } else {
      cache.trial_engine.reset();
    }
  }

  sim::EngineConfig config;
  config.population = spec.population;
  config.num_active = spec.num_active;
  config.channels = spec.channels;
  config.max_rounds = spec.max_rounds;
  config.stop_when_solved = spec.stop_when_solved;
  config.record_active_counts = spec.record_active_counts;
  config.rng = spec.rng;
  config.faults = spec.faults;
  config.adversary = spec.adversary;
  config.robust = spec.robust;
  if (plan.lanes) {
    config.seed = spec.base_seed + static_cast<std::uint64_t>(first);
    cache.seeds.resize(static_cast<std::size_t>(count));
    for (std::int32_t i = 0; i < count; ++i) {
      cache.seeds[static_cast<std::size_t>(i)] =
          spec.base_seed + static_cast<std::uint64_t>(first + i);
    }
    cache.trial_engine->Run(config, *cache.program, cache.seeds, out);
    return;
  }
  for (std::int32_t i = 0; i < count; ++i) {
    config.seed = spec.base_seed + static_cast<std::uint64_t>(first + i);
    out[static_cast<std::size_t>(i)] =
        plan.batch ? cache.batch_engine.Run(config, *cache.program)
                   : sim::Engine::Run(config, protocol.coroutine);
  }
}

TrialSetResult AggregateTrialRuns(std::vector<sim::RunResult>&& runs,
                                  bool keep_runs) {
  TrialSetResult result;
  result.solved_rounds.reserve(runs.size());
  for (const sim::RunResult& run : runs) {
    result.faults_injected += run.faults_injected;
    result.crashed_nodes += run.crashed_nodes;
    result.adv_jams_spent += run.adv_jams_spent;
    result.adv_jams_effective += run.adv_jams_effective;
    result.adv_rounds_held += run.adv_rounds_held;
    result.adv_jams_echo += run.adv_jams_echo;
    result.adv_jams_backoff += run.adv_jams_backoff;
    result.epochs_used += run.epochs_used;
    result.retries += run.retries;
    result.confirm_rounds += run.confirm_rounds;
    result.backoff_rounds += run.backoff_rounds;
    result.adaptive_confirm_extra += run.adaptive_confirm_extra;
    result.adaptive_backoff_trimmed += run.adaptive_backoff_trimmed;
    result.confirm_quorum_peak =
        std::max(result.confirm_quorum_peak, run.confirm_quorum_peak);
    result.probe_rounds_detected += run.probe_rounds_detected;
    result.obfuscation_rounds += run.obfuscation_rounds;
    result.rounds_total += run.rounds_executed;
    result.trial_lanes_peak =
        std::max(result.trial_lanes_peak, run.trial_lanes);
    if (run.trial_fallback) ++result.trial_fallbacks;
    result.fused_rounds_total += run.fused_rounds;
    if (run.solved) {
      result.solved_rounds.push_back(run.solved_round + 1);
      if (run.confirmed) ++result.confirmed;
    } else {
      // Failed trials are counted, never folded into the round statistics:
      // a timed-out trial's rounds_executed is just the max_rounds cap.
      ++result.unsolved;
      if (run.timed_out) ++result.timed_out;
      if (run.assumption_violated) ++result.aborted;
      if (run.wedged) ++result.wedged;
      // The remainder terminated unsolved without violating an assumption:
      // the nodes exited deluded (silent failure).
      if (!run.timed_out && !run.assumption_violated) ++result.deluded;
    }
  }
  result.summary = Summarize(result.solved_rounds);
  if (keep_runs) result.runs = std::move(runs);
  return result;
}

std::uint64_t NextTrialJobId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}

}  // namespace internal

namespace {

// Shared by RunTrials and RunTrialsSpawn: argument validation plus the
// lane-width notice from the RunTrials contract.
void ValidateTrialArgs(const TrialSpec& spec, const ProtocolHandle& protocol,
                       std::int32_t trials) {
  CRMC_REQUIRE(trials >= 1);
  CRMC_REQUIRE(protocol.coroutine != nullptr);
  if (spec.lane_width < 1) {
    throw std::invalid_argument(
        "lane width (--lanes) must be >= 1, got " +
        std::to_string(spec.lane_width));
  }
}

// The trial engine itself rejects xoshiro (its streams are sequential by
// construction); surface that before any worker thread runs so the error
// arrives as an exception on the calling thread, not a terminate inside a
// pool worker. Only the lane path cares: --lanes on a coroutine-only run or
// a protocol without a twin is legal (it just buys nothing — see the stderr
// notice).
void ValidatePlan(const TrialSpec& spec, const internal::TrialJobPlan& plan) {
  if (plan.lanes && spec.rng != support::RngKind::kPhilox) {
    throw std::invalid_argument(
        "--lanes > 1 requires --rng philox: lockstep lanes need "
        "counter-based streams, xoshiro draws are sequential by "
        "construction");
  }
}

// A lane_width > 1 request runs per trial whenever the protocol lacks a
// trial-program twin (no step program at all, or PlanTrialJob's probe found
// MakeTrialProgram returning nullptr). That is correct but silently buys
// nothing, so say so — once per protocol per process, not per grid point,
// so a sweep stays readable.
void MaybeWarnLaneFallback(const TrialSpec& spec,
                           const internal::TrialJobPlan& plan) {
  if (spec.lane_width <= 1 || plan.lanes) return;
  const std::string label =
      plan.batch ? plan.program_name : std::string("this protocol");
  // Pre-format off-lock, then dedup-check and emit as one write *under* the
  // lock: releasing it between the insert and the stream (the historical
  // shape) let two threads first-warning different protocols interleave
  // their notice fragments on stderr under the persistent work-stealing
  // pool. The set stays the dedup key — one notice per protocol label per
  // process, same contract as before.
  std::string notice = "note: --lanes " + std::to_string(spec.lane_width) +
                       " requested but " + label +
                       " has no trial-parallel twin" +
                       (plan.batch ? "" : " (coroutine-engine run)") +
                       "; trials run on the per-trial path\n";
  static std::mutex mu;
  static std::set<std::string> warned;
  const std::lock_guard<std::mutex> lock(mu);
  if (!warned.insert(label).second) return;
  std::cerr << notice;
}

std::int32_t ResolveThreads(std::int32_t threads, std::int32_t trials) {
  if (threads <= 0) {
    threads = static_cast<std::int32_t>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  return std::min(threads, trials);
}

}  // namespace

TrialSetResult RunTrials(const TrialSpec& spec, const ProtocolHandle& protocol,
                         std::int32_t trials, bool keep_runs,
                         std::int32_t threads) {
  ValidateTrialArgs(spec, protocol, trials);
  const internal::TrialJobPlan plan =
      internal::PlanTrialJob(spec, protocol, keep_runs);
  ValidatePlan(spec, plan);
  MaybeWarnLaneFallback(spec, plan);
  threads = ResolveThreads(threads, trials);

  if (threads == 1) {
    // Inline path: no pool involvement, same chunk runner — handy under
    // sanitizers and for debugging, and bit-identical by construction.
    std::vector<sim::RunResult> runs(static_cast<std::size_t>(trials));
    internal::TrialWorkerCache cache;
    const std::uint64_t job_id = internal::NextTrialJobId();
    for (std::int32_t t = 0; t < trials; t += plan.stride) {
      const std::int32_t count = std::min(plan.stride, trials - t);
      internal::RunTrialChunk(spec, protocol, plan, job_id, cache, t, count,
                              std::span<sim::RunResult>(runs).subspan(
                                  static_cast<std::size_t>(t),
                                  static_cast<std::size_t>(count)));
    }
    return internal::AggregateTrialRuns(std::move(runs), keep_runs);
  }

  return SweepExecutor::Global()
      .Enqueue(spec, protocol, trials, keep_runs, threads)
      .Wait();
}

TrialSetResult RunTrialsSpawn(const TrialSpec& spec,
                              const ProtocolHandle& protocol,
                              std::int32_t trials, bool keep_runs,
                              std::int32_t threads) {
  ValidateTrialArgs(spec, protocol, trials);
  const internal::TrialJobPlan plan =
      internal::PlanTrialJob(spec, protocol, keep_runs);
  ValidatePlan(spec, plan);
  MaybeWarnLaneFallback(spec, plan);
  threads = ResolveThreads(threads, trials);

  std::vector<sim::RunResult> runs(static_cast<std::size_t>(trials));
  const std::uint64_t job_id = internal::NextTrialJobId();
  std::atomic<std::int32_t> next{0};
  auto worker = [&]() {
    internal::TrialWorkerCache cache;
    for (;;) {
      const std::int32_t t = next.fetch_add(plan.stride);
      if (t >= trials) return;
      const std::int32_t count = std::min(plan.stride, trials - t);
      internal::RunTrialChunk(spec, protocol, plan, job_id, cache, t, count,
                              std::span<sim::RunResult>(runs).subspan(
                                  static_cast<std::size_t>(t),
                                  static_cast<std::size_t>(count)));
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (std::int32_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  return internal::AggregateTrialRuns(std::move(runs), keep_runs);
}

double MeanSolvedRounds(const TrialSpec& spec, const ProtocolHandle& protocol,
                        std::int32_t trials) {
  const TrialSetResult r = RunTrials(spec, protocol, trials);
  CRMC_CHECK_MSG(r.unsolved == 0,
                 r.unsolved << " of " << trials << " trials failed to solve ("
                            << r.timed_out << " timed out, " << r.aborted
                            << " aborted)");
  return r.summary.mean;
}

}  // namespace crmc::harness
