// perfbench: the measuring binary of the repository benchmark.
//
// Runs one named workload through the library's public entry points for a
// wall-clock budget and prints one JSON report on stdout: the workload's
// simulated outputs (perfbench/run.py checks them against recorded values),
// bit-exactness checks against the coroutine oracle, deterministic work
// counters, per-rep host timings and — with --trace 1 — per-layer numbers.
// Every layer is timed from outside, by timing this file's own calls into
// that layer's public functions (harness::RunTrials, traffic::RunTraffic,
// the three engines' Run, mac::Resolver::Resolve, the simd:: kernels and
// the support RNG); no program source is instrumented.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-only] [--inject-delay F]
//
// --setup-only stops after set-up (registry, SIMD dispatch, pool spin-up,
// first-shape scratch) and reports only the moment set-up ended.
// --inject-delay F stretches every timed workload call by F times its own
// duration (a busy wait inside the timed region); run.py's self-check uses
// it to show that the comparison flags a slowdown.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/json_writer.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/stats.h"
#include "mac/faults.h"
#include "mac/resolver.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/trial_engine.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "support/rng.h"
#include "traffic/traffic.h"

namespace {

using namespace crmc;
using Clock = std::chrono::steady_clock;

// Keeps probe results observable so the compiler cannot drop the work.
std::uint64_t g_sink = 0;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void SpinFor(double seconds) {
  const Clock::time_point start = Clock::now();
  while (Since(start) < seconds) {
  }
}

// ---------------------------------------------------------------- host probe

// The reference host's speed moves by 20% and more, within a second and
// between minutes, with what other tenants do to its shared caches, memory
// and cores. A fixed probe of this file's own code runs right before every
// timed call, and host times are reported in probe units: each time is
// divided by its probe's time and multiplied by kProbeReferenceS, about the
// probe's median time on the reference host. No program change moves the
// probe, so a program that gets x% slower still reads x% slower.
//
// The probe is two fixed parts of about equal time, as the workloads mix
// both kinds of work: a chain of xorshift-addressed read-modify-writes over
// 4 MiB, twice a core's private L2 on the reference host, which meets
// shared-cache and memory contention; and eight independent xorshift-
// multiply streams, which meet contention for the core's execution units.
constexpr std::size_t kProbeWords = std::size_t{1} << 19;  // 4 MiB
constexpr int kProbeMemorySteps = 200'000;
constexpr int kProbeComputeSteps = 180'000;
constexpr double kProbeReferenceS = 3.0e-3;

double ProbeHost() {
  static std::vector<std::uint64_t> buffer(kProbeWords, 1);
  const auto next = [](std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < kProbeMemorySteps; ++i) {
    next(x);
    acc += buffer[x & (kProbeWords - 1)];
    buffer[(x >> 24) & (kProbeWords - 1)] += acc;
  }
  std::uint64_t streams[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < kProbeComputeSteps; ++i) {
    for (std::uint64_t& s : streams) acc += next(s) * 0x9e3779b97f4a7c15ULL;
  }
  g_sink += acc;
  return Since(start);
}

// The factor that puts one-shot timings taken right after it into probe
// units, from the median of a few probes.
double ProbeScale() {
  ProbeHost();  // faults the probe's buffer in
  std::vector<double> probes;
  for (int i = 0; i < 5; ++i) probes.push_back(ProbeHost());
  return kProbeReferenceS / Median(probes);
}

// ---------------------------------------------------------------- workloads

enum class Kind { kTrials, kTraffic };

struct Workload {
  std::string name;
  Kind kind = Kind::kTrials;
  std::string algo;
  // Phase marks closing each of the protocol's stages; a run's stage
  // rounds are the latest of them it reached.
  std::vector<std::string> stage_marks;
  std::int64_t population = 0;
  std::int32_t active = 0;  // |A| (traffic: the kernel/resolver probe shape)
  std::vector<std::int32_t> channels;
  support::RngKind rng = support::RngKind::kXoshiro;
  std::int32_t lanes = 1;
  std::int32_t threads = 1;
  // Coroutine engine with per-node phase marks (RunTrials keep_runs), run
  // to completion — the E5 stage-breakdown path.
  bool oracle = false;
  std::int32_t trials = 0;         // per trial point per rep
  std::int32_t slices = 1;  // timed parts per point (traffic: traces) per rep
  std::int32_t golden_trials = 0;  // per point, default seed, every run
  std::int32_t parity_trials = 0;  // per point, checked against the oracle
  std::int32_t stage_trials = 0;   // per point, run-to-completion oracle
  std::int32_t probe_trials = 0;   // per point, secondary-executor probes
  std::string crmc;                // equivalent CLI command (seed appended)
};

constexpr std::uint64_t kDefaultSeed = 1;  // the seed of the golden check

// Traffic workload: General on 64 channels serving 64 stations at Poisson
// lambda = 0.08 (just below the knee) under hardened robust delivery, a
// budget-4 greedy reactive jammer per episode and 1% lone-message erasure.
constexpr std::int32_t kStations = 64;
constexpr double kLambda = 0.08;
constexpr std::int64_t kTraceHorizon = 200'000;  // per trace slice
constexpr std::int64_t kGoldenHorizon = 50'000;
constexpr std::int64_t kParityHorizon = 20'000;
constexpr std::int64_t kProbeHorizon = 100'000;
// Episode shapes (|A| = backlogged stations) for the traffic workload's
// trial-level measurements: RunTraffic exposes no per-episode results.
const std::vector<std::int32_t> kEpisodeShapes = {2, 4, 8, 16, 32};

std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "general_large";
    w.algo = "general";
    w.stage_marks = {"reduce_done", "rename_done", "elect_done"};
    w.population = std::int64_t{1} << 20;
    w.active = 4096;
    w.channels = {32, 256};
    w.trials = 2000;
    w.slices = 10;
    w.golden_trials = 32;
    w.parity_trials = 4;
    w.stage_trials = 384;
    w.probe_trials = 64;
    w.crmc =
        "crmc sweep --algo general --vary channels --values 32,256 "
        "--active 4096 --population 1048576 --trials 2000 --threads 1 "
        "--rng xoshiro";
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "two_active_lanes";
    w.algo = "two_active";
    w.stage_marks = {"rename_done", "search_done"};
    w.population = std::int64_t{1} << 20;
    w.active = 2;
    w.channels = {64, 1024};
    w.rng = support::RngKind::kPhilox;
    w.lanes = 32;
    w.threads = 2;
    w.trials = 500'000;
    w.slices = 5;
    w.golden_trials = 4096;
    w.parity_trials = 256;
    w.stage_trials = 4096;
    w.probe_trials = 65'536;
    w.crmc =
        "crmc sweep --algo two_active --vary channels --values 64,1024 "
        "--active 2 --population 1048576 --trials 500000 --rng philox "
        "--lanes 32 --threads 2";
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "traffic_adversarial";
    w.kind = Kind::kTraffic;
    w.algo = "general";
    w.stage_marks = {"reduce_done", "rename_done", "elect_done"};
    w.population = kStations;
    w.active = 16;
    w.channels = {64};
    w.trials = 2048;  // per episode shape
    w.slices = 10;
    w.golden_trials = 0;
    w.parity_trials = 16;
    w.stage_trials = 1024;
    w.probe_trials = 64;
    w.crmc =
        "crmc traffic --algo general --channels 64 --stations 64 "
        "--lambda 0.08 --rounds 200000 --robust --robust-policy hardened "
        "--adversary greedy_reactive --adversary-budget 4 "
        "--erasure-rate 0.01";
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "oracle_stages";
    w.algo = "general";
    w.stage_marks = {"reduce_done", "rename_done", "elect_done"};
    w.population = std::int64_t{1} << 20;
    w.active = 4096;
    w.channels = {32, 256};
    w.oracle = true;
    w.trials = 300;
    w.slices = 10;
    w.golden_trials = 2;
    w.parity_trials = 2;
    w.stage_trials = 0;  // the workload itself carries the stage marks
    w.probe_trials = 8;
    w.crmc =
        "crmc run --algo general --active 4096 --population 1048576 "
        "--channels 32 --run-to-completion";
    all.push_back(w);
  }
  return all;
}

// Trial t of a point runs with seed base_seed + t; seeds of different
// workload seeds never overlap for fewer than 2^32 trials.
std::uint64_t BaseSeed(std::uint64_t seed) { return seed << 32; }

// Trace slice i of the traffic workload: its own traffic seed, and an
// engine seed range (episode e runs with base + e) of its own.
std::uint64_t TraceSeed(std::uint64_t seed, std::int32_t slice) {
  return seed * 1000 + static_cast<std::uint64_t>(slice);
}
std::uint64_t TraceBaseSeed(std::uint64_t seed, std::int32_t slice) {
  return BaseSeed(seed) + (static_cast<std::uint64_t>(slice) << 24);
}

harness::TrialSpec TrafficEngineSpec(std::uint64_t base_seed) {
  harness::TrialSpec engine;
  engine.channels = 64;
  engine.max_rounds = 4096;  // per episode, as `crmc traffic`
  engine.base_seed = base_seed;
  engine.faults.erasure_rate = 0.01;
  engine.adversary.kind = adversary::Kind::kGreedyReactive;
  engine.adversary.budget = 4;
  engine.robust.enabled = true;
  engine.robust.policy = robust::PolicyKind::kHardened;
  return engine;
}

traffic::TrafficSpec TrafficWorkloadSpec(std::uint64_t seed,
                                         std::int64_t horizon) {
  traffic::TrafficSpec spec;
  spec.arrival = traffic::ArrivalKind::kPoisson;
  spec.lambda = kLambda;
  spec.stations = kStations;
  spec.horizon_rounds = horizon;
  spec.traffic_seed = seed;
  return spec;
}

// The trial points a workload runs through RunTrials: its channel points,
// or — for the traffic workload — one point per episode shape.
std::vector<harness::TrialSpec> TrialPoints(const Workload& w,
                                            std::uint64_t seed) {
  std::vector<harness::TrialSpec> points;
  if (w.kind == Kind::kTraffic) {
    for (const std::int32_t k : kEpisodeShapes) {
      harness::TrialSpec spec = TrafficEngineSpec(BaseSeed(seed));
      spec.population = w.population;
      spec.num_active = k;
      points.push_back(spec);
    }
    return points;
  }
  for (const std::int32_t c : w.channels) {
    harness::TrialSpec spec;
    spec.population = w.population;
    spec.num_active = w.active;
    spec.channels = c;
    spec.base_seed = BaseSeed(seed);
    spec.rng = w.rng;
    spec.lane_width = w.lanes;
    spec.stop_when_solved = !w.oracle;
    points.push_back(spec);
  }
  return points;
}

std::string PointLabel(const Workload& w, const harness::TrialSpec& spec) {
  return w.kind == Kind::kTraffic ? "a" + std::to_string(spec.num_active)
                                  : "c" + std::to_string(spec.channels);
}

// The per-trial EngineConfig RunTrials builds for trial seed `seed`.
sim::EngineConfig TrialConfig(const harness::TrialSpec& spec,
                              std::uint64_t seed) {
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
  config.seed = seed;
  return config;
}

// Model outputs of one run; executor diagnostics (fused_rounds,
// trial_lanes, trial_fallback) are not part of the contract.
bool SameOutcome(const sim::RunResult& a, const sim::RunResult& b) {
  return a.solved == b.solved && a.solved_round == b.solved_round &&
         std::equal(a.all_solved_rounds.begin(), a.all_solved_rounds.end(),
                    b.all_solved_rounds.begin(), b.all_solved_rounds.end()) &&
         a.rounds_executed == b.rounds_executed &&
         a.timed_out == b.timed_out && a.all_terminated == b.all_terminated &&
         a.total_transmissions == b.total_transmissions &&
         a.max_node_transmissions == b.max_node_transmissions &&
         a.mean_node_transmissions == b.mean_node_transmissions &&
         a.faults_injected == b.faults_injected &&
         a.adv_jams_spent == b.adv_jams_spent &&
         a.adv_jams_effective == b.adv_jams_effective &&
         a.epochs_used == b.epochs_used && a.retries == b.retries &&
         a.confirm_rounds == b.confirm_rounds &&
         a.backoff_rounds == b.backoff_rounds &&
         a.confirmed == b.confirmed && a.active_counts == b.active_counts;
}

// ------------------------------------------------------ direct engine calls

enum class Executor { kCoroutine, kBatch, kTrial };

const char* ToString(Executor e) {
  switch (e) {
    case Executor::kCoroutine:
      return "coroutine";
    case Executor::kBatch:
      return "batch";
    case Executor::kTrial:
      return "trial";
  }
  return "?";
}

// Totals over a set of direct engine runs. `seconds` covers only the
// engines' Run calls.
struct EngineTotals {
  double seconds = 0.0;
  std::int64_t runs = 0;
  std::int64_t rounds = 0;
  std::int64_t node_rounds = 0;  // iff record_active_counts
  std::int64_t transmissions = 0;
  std::int64_t fused_rounds = 0;
  std::int64_t fallbacks = 0;
  std::int64_t lane_capacity = 0;  // Σ over lane chunks: width x longest lane
  std::int64_t confirm_rounds = 0;
  std::int64_t backoff_rounds = 0;
  std::int64_t retries = 0;
  std::int64_t jams_spent = 0;
  std::int64_t jams_effective = 0;

  void Add(const sim::RunResult& r) {
    ++runs;
    rounds += r.rounds_executed;
    node_rounds +=
        std::accumulate(r.active_counts.begin(), r.active_counts.end(),
                        std::int64_t{0});
    transmissions += r.total_transmissions;
    fused_rounds += r.fused_rounds;
    fallbacks += r.trial_fallback;
    confirm_rounds += r.confirm_rounds;
    backoff_rounds += r.backoff_rounds;
    retries += r.retries;
    jams_spent += r.adv_jams_spent;
    jams_effective += r.adv_jams_effective;
  }
};

// Runs trials [first, first + count) of `spec` directly on one executor,
// in chunks so memory stays flat. Results are appended to `keep` if given.
void RunDirect(const harness::TrialSpec& spec,
               const harness::ProtocolHandle& handle, Executor executor,
               std::int32_t first, std::int32_t count, EngineTotals& totals,
               std::vector<sim::RunResult>* keep = nullptr) {
  constexpr std::int32_t kChunk = 4096;
  sim::EngineConfig config = TrialConfig(spec, spec.base_seed);
  std::unique_ptr<sim::StepProgram> program;
  if (executor != Executor::kCoroutine) program = handle.step_program();
  sim::BatchEngine batch;
  std::optional<sim::TrialBatchEngine> trial;
  const std::int32_t width = std::max(spec.lane_width, 1);
  if (executor == Executor::kTrial) trial.emplace(width);
  std::vector<std::uint64_t> seeds;
  std::vector<sim::RunResult> out;
  for (std::int32_t t = first; t < first + count; t += kChunk) {
    const std::int32_t n = std::min(kChunk, first + count - t);
    seeds.resize(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) {
      seeds[static_cast<std::size_t>(i)] =
          spec.base_seed + static_cast<std::uint64_t>(t + i);
    }
    out.assign(static_cast<std::size_t>(n), sim::RunResult{});
    const Clock::time_point start = Clock::now();
    if (executor == Executor::kTrial) {
      trial->Run(config, *program, seeds, out);
    } else {
      for (std::int32_t i = 0; i < n; ++i) {
        config.seed = seeds[static_cast<std::size_t>(i)];
        out[static_cast<std::size_t>(i)] =
            executor == Executor::kBatch
                ? batch.Run(config, *program)
                : sim::Engine::Run(config, handle.coroutine);
      }
    }
    totals.seconds += Since(start);
    for (std::int32_t lane0 = 0; lane0 < n; lane0 += width) {
      std::int64_t longest = 0;
      const std::int32_t lanes = std::min(width, n - lane0);
      for (std::int32_t i = lane0; i < lane0 + lanes; ++i) {
        const sim::RunResult& r = out[static_cast<std::size_t>(i)];
        totals.Add(r);
        longest = std::max(longest, r.rounds_executed);
      }
      totals.lane_capacity += longest * width;
    }
    if (keep != nullptr) {
      for (sim::RunResult& r : out) keep->push_back(std::move(r));
    }
  }
}

// Engine time of direct runs with their node-rounds, which only a batch
// pass with active counts recorded can count.
struct ExecutorTiming {
  EngineTotals totals;
  std::int64_t node_rounds = 0;

  double NsPerRound() const {
    return 1e9 * Ratio(totals.seconds, static_cast<double>(totals.rounds));
  }
  double NsPerNodeRound() const {
    return 1e9 * Ratio(totals.seconds, static_cast<double>(node_rounds));
  }
};

Executor WorkloadExecutor(const Workload& w) {
  if (w.oracle) return Executor::kCoroutine;
  return w.lanes > 1 ? Executor::kTrial : Executor::kBatch;
}

// ------------------------------------------------------------------ outputs

// Rounds a run spent in the protocol's stages (-1: it marked none).
std::int64_t StageRounds(const Workload& w, const sim::RunResult& run) {
  std::int64_t last = -1;
  for (const std::string& mark : w.stage_marks) {
    last = std::max(last, run.LastPhaseMark(mark));
  }
  return last;
}

// Simulated outputs, keyed by name. Every value is an integer count or a
// deterministic double, so two runs of one seed compare exactly.
using Outputs = std::map<std::string, double>;

// A rep's trial results for one point, summed over its slices.
struct TrialTally {
  std::int64_t trials = 0;
  std::int64_t unsolved = 0;
  std::int64_t rounds_total = 0;
  std::vector<std::int64_t> solved_rounds;
  // From per-node phase marks (keep_runs only).
  bool marked = false;
  std::int64_t stage_sum = 0;
  std::int64_t stage_runs = 0;
  std::int64_t reduce_full_runs = 0;
  std::int64_t reduce_violations = 0;
  std::map<std::string, std::int64_t> mark_sums;

  void Add(const Workload& w, const harness::TrialSetResult& r,
           std::int32_t count) {
    trials += count;
    unsolved += r.unsolved;
    rounds_total += r.rounds_total;
    solved_rounds.insert(solved_rounds.end(), r.solved_rounds.begin(),
                         r.solved_rounds.end());
    if (r.runs.empty()) return;
    marked = true;
    // Theorem 5: a run that leaves Reduce without a leader spent exactly
    // 2 * ceil(lg lg n) rounds in it.
    const auto reduce_rounds = static_cast<std::int64_t>(2 * std::ceil(
        std::log2(std::log2(static_cast<double>(w.population)))));
    for (const sim::RunResult& run : r.runs) {
      const std::int64_t stage = StageRounds(w, run);
      if (stage >= 0) {
        stage_sum += stage;
        ++stage_runs;
      }
      if (run.LastPhaseMark("rename_done") >= 0) {
        ++reduce_full_runs;
        reduce_violations += run.LastPhaseMark("reduce_done") != reduce_rounds;
      }
      // Per-stage boundaries: the Reduce / IDReduction / LeafElection split.
      for (const std::string& mark : w.stage_marks) {
        mark_sums[mark] += std::max<std::int64_t>(run.LastPhaseMark(mark), 0);
      }
    }
  }

  void Write(const std::string& label, Outputs& out) const {
    const std::string p = label + ".";
    out[p + "trials"] = static_cast<double>(trials);
    out[p + "solved"] = static_cast<double>(solved_rounds.size());
    out[p + "unsolved"] = static_cast<double>(unsolved);
    out[p + "solved_round_sum"] = static_cast<double>(std::accumulate(
        solved_rounds.begin(), solved_rounds.end(), std::int64_t{0}));
    out[p + "solved_round_p99"] = harness::Summarize(solved_rounds).p99;
    out[p + "rounds_total"] = static_cast<double>(rounds_total);
    if (!marked) return;
    out[p + "stage_rounds_sum"] = static_cast<double>(stage_sum);
    out[p + "stage_runs"] = static_cast<double>(stage_runs);
    out[p + "reduce_full_runs"] = static_cast<double>(reduce_full_runs);
    out[p + "reduce_schedule_violations"] =
        static_cast<double>(reduce_violations);
    for (const auto& [mark, sum] : mark_sums) {
      out[p + mark + "_sum"] = static_cast<double>(sum);
    }
  }
};

// A rep's traffic results summed over its independent trace slices.
struct TrafficTally {
  traffic::TrafficResult sum;  // counters summed, backlog_peak the max
  std::map<std::int64_t, std::int64_t> latency;  // merged histogram

  void Add(const traffic::TrafficResult& r) {
    sum.arrivals += r.arrivals;
    sum.delivered += r.delivered;
    sum.backlog_remaining += r.backlog_remaining;
    sum.backlog_peak = std::max(sum.backlog_peak, r.backlog_peak);
    sum.rounds += r.rounds;
    sum.idle_rounds += r.idle_rounds;
    sum.episodes += r.episodes;
    sum.failed_episodes += r.failed_episodes;
    sum.singleton_deliveries += r.singleton_deliveries;
    sum.engine_episodes_coroutine += r.engine_episodes_coroutine;
    for (const auto& [rounds, count] : r.latency_histogram) {
      latency[rounds] += count;
    }
  }

  void Write(const std::string& prefix, Outputs& out) const {
    const std::string p = prefix + ".";
    out[p + "arrivals"] = static_cast<double>(sum.arrivals);
    out[p + "delivered"] = static_cast<double>(sum.delivered);
    out[p + "backlog_remaining"] = static_cast<double>(sum.backlog_remaining);
    out[p + "backlog_peak"] = static_cast<double>(sum.backlog_peak);
    out[p + "rounds"] = static_cast<double>(sum.rounds);
    out[p + "idle_rounds"] = static_cast<double>(sum.idle_rounds);
    out[p + "episodes"] = static_cast<double>(sum.episodes);
    out[p + "failed_episodes"] = static_cast<double>(sum.failed_episodes);
    out[p + "singleton_deliveries"] =
        static_cast<double>(sum.singleton_deliveries);
    out[p + "coroutine_episodes"] =
        static_cast<double>(sum.engine_episodes_coroutine);
    std::int64_t total = 0;
    for (const auto& [rounds, count] : latency) total += rounds * count;
    out[p + "latency_sum"] = static_cast<double>(total);
    out[p + "latency_p99"] = harness::WeightedQuantile(
        {latency.begin(), latency.end()}, 0.99);
  }
};

// ------------------------------------------------------------- the runner

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// One part of a rep, timed on its own: a contiguous range of one trial
// point's trials, or one independent traffic trace.
struct Slice {
  std::size_t point = 0;
  harness::TrialSpec spec;  // trials: base_seed moved to the range start
  std::int32_t trials = 0;
  traffic::TrafficSpec trace;  // traffic only
};

// Host times of one slice in one rep. `engine` covers the direct engine
// runs over the slice's seeds (traced reps only); `probe` is the host
// probe's time right before the slice.
struct SliceTime {
  double wall = 0.0;
  double cpu = 0.0;
  double engine = 0.0;
  double probe = kProbeReferenceS;
};

// Σ over slices of the median over reps of the slice's time in probe units
// (see ProbeHost), in reference-host seconds.
double ProbedSum(const std::vector<std::vector<SliceTime>>& reps,
                 double SliceTime::*field) {
  double total = 0.0;
  for (std::size_t i = 0; i < reps.front().size(); ++i) {
    std::vector<double> scaled;
    for (const std::vector<SliceTime>& rep : reps) {
      scaled.push_back(rep[i].*field / rep[i].probe);
    }
    total += Median(scaled);
  }
  return total * kProbeReferenceS;
}

// Σ over slices of the median over reps of the slice's raw host time.
double RawSum(const std::vector<std::vector<SliceTime>>& reps,
              double SliceTime::*field) {
  double total = 0.0;
  for (std::size_t i = 0; i < reps.front().size(); ++i) {
    std::vector<double> times;
    for (const std::vector<SliceTime>& rep : reps) {
      times.push_back(rep[i].*field);
    }
    total += Median(times);
  }
  return total;
}

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, double inject_delay)
      : w_(std::move(w)),
        seed_(seed),
        inject_delay_(inject_delay),
        info_(harness::AlgorithmByName(w_.algo)),
        handle_(harness::HandleFor(info_)),
        points_(TrialPoints(w_, seed)) {
    if (w_.kind == Kind::kTraffic) {
      for (std::int32_t i = 0; i < w_.slices; ++i) {
        Slice slice;
        slice.trace = TrafficWorkloadSpec(TraceSeed(seed, i), kTraceHorizon);
        slice.spec = TrafficEngineSpec(TraceBaseSeed(seed, i));
        slices_.push_back(slice);
      }
      return;
    }
    const std::int32_t per_slice = w_.trials / w_.slices;
    for (std::size_t p = 0; p < points_.size(); ++p) {
      for (std::int32_t i = 0; i < w_.slices; ++i) {
        Slice slice;
        slice.point = p;
        slice.spec = points_[p];
        slice.spec.base_seed += static_cast<std::uint64_t>(i * per_slice);
        slice.trials = per_slice;
        slices_.push_back(slice);
      }
    }
  }

  // Everything before the first timed call: registry lookup (constructor),
  // SIMD dispatch, and the golden job, which also spins the worker pool up
  // and allocates first-shape scratch. The golden job's seed is fixed, so
  // set-up does the same work whatever --seed is.
  void SetUp() {
    backend_ = simd::ToString(simd::ActiveBackend());
    golden_ = Golden();
  }

  // One rep: every slice once, in order. Returns the slices' times; with
  // `direct`, each trial slice's call is followed by direct runs of the
  // workload's executor over the same seeds (the traced rep), so the two
  // are measured close together in time.
  std::vector<SliceTime> Rep(Outputs& outputs,
                             EngineTotals* direct = nullptr) {
    std::vector<SliceTime> times;
    std::vector<TrialTally> tallies(points_.size());
    TrafficTally trace;
    for (const Slice& slice : slices_) {
      SliceTime t;
      t.probe = ProbeHost();
      const double cpu0 = ProcessCpuSeconds();
      const double rss0 = PeakRssMb();
      const Clock::time_point start = Clock::now();
      std::int64_t items = slice.trials;
      if (w_.kind == Kind::kTraffic) {
        const traffic::TrafficResult r = traffic::RunTraffic(
            slice.trace, slice.spec, handle_, info_.requires_two_active);
        t.wall = Delay(Since(start));
        t.cpu = ProcessCpuSeconds() - cpu0;
        trace.Add(r);
        items = r.episodes;
      } else {
        const harness::TrialSetResult r = harness::RunTrials(
            slice.spec, handle_, slice.trials, w_.oracle, w_.threads);
        t.wall = Delay(Since(start));
        t.cpu = ProcessCpuSeconds() - cpu0;
        tallies[slice.point].Add(w_, r, slice.trials);
      }
      if (first_slice_bytes_per_item_ < 0) {
        first_slice_bytes_per_item_ =
            (PeakRssMb() - rss0) * 1024.0 * 1024.0 /
            static_cast<double>(std::max<std::int64_t>(items, 1));
      }
      if (direct != nullptr && w_.kind == Kind::kTrials) {
        const double before = direct->seconds;
        RunDirect(slice.spec, handle_, WorkloadExecutor(w_), 0, slice.trials,
                  *direct);
        t.engine = direct->seconds - before;
      }
      times.push_back(t);
    }
    outputs.clear();
    if (w_.kind == Kind::kTraffic) trace.Write("trace", outputs);
    for (std::size_t p = 0; p < points_.size(); ++p) {
      if (tallies[p].trials > 0) {
        tallies[p].Write(PointLabel(w_, points_[p]), outputs);
      }
    }
    return times;
  }

  // The timed loop of an untraced run: reps until `seconds` have passed
  // (at least three), every rep's outputs identical to the first's.
  void Measure(double seconds) {
    ProbeHost();  // faults the probe's buffer in
    const Clock::time_point start = Clock::now();
    Outputs outputs;
    while (reps_.size() < 3 || Since(start) < seconds) {
      reps_.push_back(Rep(outputs));
      if (reps_.size() == 1) {
        outputs_ = outputs;
      } else if (outputs != outputs_) {
        deterministic_ = false;
      }
    }
    peak_rss_mb_ = PeakRssMb();
  }

  // The traced run: plain reps alternate with traced reps, which run the
  // same workload calls, each followed by the engines run directly over
  // the same seeds. For traffic, the harness and engine spans come from
  // the episode shapes, timed after the traces.
  void MeasureTraced(double seconds) {
    ProbeHost();  // faults the probe's buffer in
    const Clock::time_point start = Clock::now();
    Outputs outputs;
    std::vector<std::vector<SliceTime>> plain;
    std::vector<std::vector<SliceTime>> shapes;  // traffic: per episode shape
    std::vector<double> glue;
    while (reps_.size() < 2 || Since(start) < seconds) {
      plain.push_back(Rep(outputs));
      if (plain.size() == 1) {
        outputs_ = outputs;
      } else if (outputs != outputs_) {
        deterministic_ = false;
      }

      const Clock::time_point rep_start = Clock::now();
      EngineTotals totals;
      reps_.push_back(Rep(outputs, &totals));
      if (outputs != outputs_) deterministic_ = false;
      double spans = 0.0;
      for (const SliceTime& t : reps_.back()) spans += t.wall + t.engine;
      if (w_.kind == Kind::kTraffic) {
        std::vector<SliceTime> times;
        for (const harness::TrialSpec& spec : points_) {
          SliceTime t;
          t.probe = ProbeHost();
          const double cpu0 = ProcessCpuSeconds();
          const Clock::time_point h0 = Clock::now();
          harness::RunTrials(spec, handle_, w_.trials, false, w_.threads);
          t.wall = Since(h0);
          t.cpu = ProcessCpuSeconds() - cpu0;
          const double before = totals.seconds;
          RunDirect(spec, handle_, WorkloadExecutor(w_), 0, w_.trials,
                    totals);
          t.engine = totals.seconds - before;
          spans += t.wall + t.engine;
          times.push_back(t);
        }
        shapes.push_back(times);
      }
      std::vector<double> probes;
      for (const SliceTime& t : reps_.back()) probes.push_back(t.probe);
      glue.push_back((Since(rep_start) - spans) * kProbeReferenceS /
                     Median(probes));
      direct_ = totals;
    }
    const std::vector<std::vector<SliceTime>>& harness_reps =
        w_.kind == Kind::kTraffic ? shapes : reps_;
    const double threads = std::max(w_.threads, 1);
    const double harness_s = ProbedSum(harness_reps, &SliceTime::wall);
    direct_.seconds = ProbedSum(harness_reps, &SliceTime::engine);
    const double engine_wall = direct_.seconds / threads;
    layers_["harness.self_s"] = harness_s - engine_wall;
    layers_["harness.self_share"] = Ratio(harness_s - engine_wall, harness_s);
    layers_["harness.result_bytes_per_trial"] = first_slice_bytes_per_item_;
    layers_["harness.pool_busy_share"] = Ratio(
        ProbedSum(harness_reps, &SliceTime::cpu), threads * harness_s);
    layers_["trace.overhead_ratio"] = Ratio(
        ProbedSum(reps_, &SliceTime::wall), ProbedSum(plain, &SliceTime::wall));
    layers_["unattributed_s"] = Median(glue);
  }

  // Per-layer probes of a traced run, each a direct call into one layer's
  // public functions at the workload's shapes, timed in probe units.
  void ProbeLayers() {
    layer_scale_ = ProbeScale();
    const std::int32_t slots = w_.active * std::max(w_.lanes, 1);
    const std::int32_t channels = w_.channels.front();
    ProbeKernels(slots, channels);
    layers_["rng.xoshiro.ns_per_draw"] =
        ProbeRng(support::RngKind::kXoshiro, w_.active);
    layers_["rng.philox.ns_per_draw"] =
        ProbeRng(support::RngKind::kPhilox, w_.active);
    layers_["mac.resolve.ns_per_action"] =
        ProbeResolver(std::max(w_.active, 2), channels, false);
    layers_["mac.resolve_faults.ns_per_action"] =
        ProbeResolver(std::max(w_.active, 2), channels, true);

    // Work counters over the workload's own trial points: the batch engine
    // with active counts recorded (bit-exact with every executor).
    EngineTotals counts;
    for (harness::TrialSpec spec : points_) {
      spec.record_active_counts = true;
      RunDirect(spec, handle_, Executor::kBatch, 0, w_.trials, counts);
    }

    // The workload's own executor was timed over all its trials by the
    // traced reps; every other executor is timed on a slice of the points.
    const Executor main = WorkloadExecutor(w_);
    const auto timed = [&](Executor executor, std::int32_t trials) {
      return main == executor ? ExecutorTiming{direct_, counts.node_rounds}
                              : TimeExecutor(executor, trials);
    };
    const ExecutorTiming batch = timed(Executor::kBatch, w_.probe_trials);
    const ExecutorTiming trial = timed(Executor::kTrial, w_.probe_trials);
    const ExecutorTiming coro = timed(Executor::kCoroutine, w_.parity_trials);
    layers_["sim.batch.ns_per_round"] = batch.NsPerRound();
    layers_["sim.batch.ns_per_node_round"] = batch.NsPerNodeRound();
    layers_["sim.batch.fused_share"] = Ratio(
        static_cast<double>(batch.totals.fused_rounds), batch.totals.rounds);
    layers_["sim.trial.ns_per_round"] = trial.NsPerRound();
    layers_["sim.trial.fallback_frac"] = Ratio(
        static_cast<double>(trial.totals.fallbacks), trial.totals.runs);
    layers_["sim.trial.lane_fill"] =
        Ratio(static_cast<double>(trial.totals.rounds),
              trial.totals.lane_capacity);
    layers_["sim.coro.ns_per_node_round"] = coro.NsPerNodeRound();

    const double rounds = static_cast<double>(counts.rounds);
    layers_["robust.confirm_round_share"] =
        Ratio(static_cast<double>(counts.confirm_rounds), rounds);
    layers_["robust.backoff_round_share"] =
        Ratio(static_cast<double>(counts.backoff_rounds), rounds);
    layers_["robust.retries_per_episode"] =
        Ratio(static_cast<double>(counts.retries), counts.runs);
    layers_["adversary.jam_efficiency"] = Ratio(
        static_cast<double>(counts.jams_effective), counts.jams_spent);

    // The traffic layer: the workload's own traces, or a short trace at
    // the workload's protocol and channel count.
    if (w_.kind == Kind::kTraffic) {
      const double episodes = outputs_.at("trace.episodes");
      layers_["traffic.ns_per_episode"] =
          1e9 * Ratio(ProbedSum(reps_, &SliceTime::wall), episodes);
      layers_["traffic.singleton_share"] =
          Ratio(outputs_.at("trace.singleton_deliveries"), episodes);
      layers_["traffic.coroutine_episodes"] =
          outputs_.at("trace.coroutine_episodes");
      layers_["work.sim_rounds"] = outputs_.at("trace.rounds");
      layers_["work.episodes"] = episodes;
    } else {
      harness::TrialSpec engine;
      engine.channels = channels;
      engine.base_seed = BaseSeed(seed_);
      engine.rng = w_.rng;
      const Clock::time_point start = Clock::now();
      const traffic::TrafficResult r = traffic::RunTraffic(
          TrafficWorkloadSpec(seed_, kProbeHorizon), engine, handle_,
          info_.requires_two_active);
      const double episodes = static_cast<double>(r.episodes);
      layers_["traffic.ns_per_episode"] =
          1e9 * Ratio(Since(start) * layer_scale_, episodes);
      layers_["traffic.singleton_share"] =
          Ratio(static_cast<double>(r.singleton_deliveries), episodes);
      layers_["traffic.coroutine_episodes"] =
          static_cast<double>(r.engine_episodes_coroutine);
      layers_["work.sim_rounds"] = rounds;
      layers_["work.episodes"] = static_cast<double>(counts.runs);
    }
    layers_["work.node_rounds"] = static_cast<double>(counts.node_rounds);
    layers_["work.transmissions"] = static_cast<double>(counts.transmissions);
    layers_["work.trial_fallbacks"] = static_cast<double>(direct_.fallbacks);
  }

  // Times `executor` on the first `trials` of every point (the trial engine
  // on philox streams, which it requires) and counts their node-rounds
  // with a recorded batch pass over the same configs.
  ExecutorTiming TimeExecutor(Executor executor, std::int32_t trials) {
    ExecutorTiming timing;
    for (harness::TrialSpec spec : points_) {
      if (executor == Executor::kTrial) {
        spec.rng = support::RngKind::kPhilox;
        spec.lane_width = sim::TrialBatchEngine::kDefaultLaneWidth;
      }
      RunDirect(spec, handle_, executor, 0, trials, timing.totals);
      spec.record_active_counts = true;
      EngineTotals counted;
      RunDirect(spec, handle_, Executor::kBatch, 0, trials, counted);
      timing.node_rounds += counted.node_rounds;
    }
    timing.totals.seconds *= layer_scale_;
    return timing;
  }

  // Simulated outputs that do not depend on the timed reps: the episode
  // shapes of the traffic workload and the run-to-completion stage marks.
  void SideOutputs() {
    if (w_.kind == Kind::kTraffic) {
      for (const harness::TrialSpec& spec : points_) {
        TrialTally tally;
        tally.Add(w_,
                  harness::RunTrials(spec, handle_, w_.trials, false,
                                     w_.threads),
                  w_.trials);
        tally.Write(PointLabel(w_, spec), outputs_);
      }
    }
    if (w_.stage_trials > 0) {
      // Stages are a protocol property: pristine config, run to completion.
      std::int64_t sum = 0;
      std::int64_t runs = 0;
      for (harness::TrialSpec spec : points_) {
        spec.faults = {};
        spec.adversary = {};
        spec.robust = {};
        spec.stop_when_solved = false;
        std::vector<sim::RunResult> kept;
        EngineTotals totals;
        RunDirect(spec, handle_, Executor::kCoroutine, 0, w_.stage_trials,
                  totals, &kept);
        for (const sim::RunResult& r : kept) {
          const std::int64_t stage = StageRounds(w_, r);
          if (stage >= 0) {
            sum += stage;
            ++runs;
          }
        }
      }
      outputs_["stage.runs"] = static_cast<double>(runs);
      outputs_["stage.rounds_sum"] = static_cast<double>(sum);
    }
  }

  // The fixed small job at the default seed, compared with recorded
  // values on every run whatever --seed is.
  Outputs Golden() {
    Outputs golden;
    if (w_.kind == Kind::kTraffic) {
      TrafficTally tally;
      tally.Add(traffic::RunTraffic(
          TrafficWorkloadSpec(TraceSeed(kDefaultSeed, 0), kGoldenHorizon),
          TrafficEngineSpec(TraceBaseSeed(kDefaultSeed, 0)), handle_,
          info_.requires_two_active));
      tally.Write("trace", golden);
      return golden;
    }
    for (const harness::TrialSpec& spec : TrialPoints(w_, kDefaultSeed)) {
      TrialTally tally;
      tally.Add(w_,
                harness::RunTrials(spec, handle_, w_.golden_trials, w_.oracle,
                                   w_.threads),
                w_.golden_trials);
      tally.Write(PointLabel(w_, spec), golden);
    }
    return golden;
  }

  // Bit-exactness on a seed subset: the workload's executor and the
  // harness against the coroutine oracle Engine::Run.
  void CheckParity() {
    for (const harness::TrialSpec& spec : points_) {
      const std::string label = PointLabel(w_, spec);
      std::vector<sim::RunResult> oracle;
      std::vector<sim::RunResult> other;
      EngineTotals unused;
      const Executor executor =
          w_.oracle ? Executor::kBatch : WorkloadExecutor(w_);
      RunDirect(spec, handle_, Executor::kCoroutine, 0, w_.parity_trials,
                unused, &oracle);
      RunDirect(spec, handle_, executor, 0, w_.parity_trials, unused, &other);
      bool same = oracle.size() == other.size();
      for (std::size_t i = 0; same && i < oracle.size(); ++i) {
        same = SameOutcome(oracle[i], other[i]);
      }
      checks_.push_back({"parity." + label + "." + ToString(executor), same,
                         std::to_string(oracle.size()) + " seeds"});

      const harness::TrialSetResult r = harness::RunTrials(
          spec, handle_, w_.parity_trials, w_.oracle, w_.threads);
      std::vector<std::int64_t> expected;
      for (const sim::RunResult& run : oracle) {
        if (run.solved) expected.push_back(run.solved_round + 1);
      }
      bool harness_same = r.solved_rounds == expected;
      for (std::size_t i = 0; harness_same && i < r.runs.size(); ++i) {
        harness_same = SameOutcome(r.runs[i], oracle[i]);
      }
      checks_.push_back({"parity." + label + ".harness", harness_same,
                         std::to_string(expected.size()) + " solved"});
    }
    if (w_.kind == Kind::kTraffic) {
      traffic::TrafficSpec spec =
          TrafficWorkloadSpec(TraceSeed(seed_, 0), kParityHorizon);
      spec.record_deliveries = true;
      harness::TrialSpec engine = TrafficEngineSpec(TraceBaseSeed(seed_, 0));
      const traffic::TrafficResult batch = traffic::RunTraffic(
          spec, engine, handle_, info_.requires_two_active);
      engine.use_batch_engine = false;
      const traffic::TrafficResult coro = traffic::RunTraffic(
          spec, engine, handle_, info_.requires_two_active);
      const bool same = batch.deliveries == coro.deliveries &&
                        batch.arrivals == coro.arrivals &&
                        batch.failed_episodes == coro.failed_episodes &&
                        batch.latency_histogram == coro.latency_histogram &&
                        coro.engine_episodes_batch == 0;
      checks_.push_back({"parity.trace.coroutine", same,
                         std::to_string(batch.deliveries.size()) +
                             " deliveries"});
    }
  }

  // Model invariants that hold for every seed.
  void CheckInvariants() {
    const auto check = [&](const std::string& name, bool ok) {
      checks_.push_back({name, ok, ""});
    };
    check("deterministic_reps", deterministic_);
    if (w_.kind == Kind::kTraffic) {
      const Outputs& o = outputs_;
      check("traffic.conservation",
            o.at("trace.arrivals") ==
                o.at("trace.delivered") + o.at("trace.backlog_remaining"));
      check("traffic.no_coroutine_episodes",
            o.at("trace.coroutine_episodes") == 0);
    }
    if (w_.oracle) {
      for (const harness::TrialSpec& spec : points_) {
        const std::string p = PointLabel(w_, spec);
        check("theorem5." + p,
              outputs_.at(p + ".reduce_schedule_violations") == 0);
      }
    }
  }

  // End-to-end metrics of an untraced run (set-up time is run.py's).
  std::map<std::string, double> EndToEnd() const {
    std::map<std::string, double> m;
    const double wall = ProbedSum(reps_, &SliceTime::wall);
    m["wall_s"] = wall;
    m["cpu_s"] = ProbedSum(reps_, &SliceTime::cpu);
    m["peak_rss_mb"] = peak_rss_mb_;
    const Outputs& o = outputs_;
    // Trial-level figures: the workload's own points, or the episode
    // shapes for traffic.
    double trials = 0;
    double solved = 0;
    double solved_sum = 0;
    double rounds = 0;
    std::vector<double> p99s;
    for (const harness::TrialSpec& spec : points_) {
      const std::string p = PointLabel(w_, spec) + ".";
      trials += o.at(p + "trials");
      solved += o.at(p + "solved");
      solved_sum += o.at(p + "solved_round_sum");
      rounds += o.at(p + "rounds_total");
      p99s.push_back(o.at(p + "solved_round_p99"));
    }
    m["solved_round_mean"] = Ratio(solved_sum, solved);
    // Pooled points differ in scale, so the tail is the worst point's.
    m["solved_round_p99"] = *std::max_element(p99s.begin(), p99s.end());
    if (w_.kind == Kind::kTraffic) {
      const double episodes = o.at("trace.episodes");
      m["trials_per_s"] = episodes / wall;
      m["packets_per_s"] = o.at("trace.delivered") / wall;
      m["sim_rounds_per_s"] = o.at("trace.rounds") / wall;
      m["solved_frac"] = 1.0 - Ratio(o.at("trace.failed_episodes"), episodes);
      m["latency_p99_rounds"] = o.at("trace.latency_p99");
    } else {
      m["trials_per_s"] = trials / wall;
      // A solved trial delivers exactly one packet, born in round 0.
      m["packets_per_s"] = solved / wall;
      m["sim_rounds_per_s"] = rounds / wall;
      m["solved_frac"] = Ratio(solved, trials);
      m["latency_p99_rounds"] = m["solved_round_p99"];
    }
    if (w_.oracle) {
      double stage_sum = 0;
      double stage_runs = 0;
      for (const harness::TrialSpec& spec : points_) {
        stage_sum += o.at(PointLabel(w_, spec) + ".stage_rounds_sum");
        stage_runs += o.at(PointLabel(w_, spec) + ".stage_runs");
      }
      m["stage_rounds_mean"] = Ratio(stage_sum, stage_runs);
    } else {
      m["stage_rounds_mean"] =
          Ratio(o.at("stage.rounds_sum"), o.at("stage.runs"));
    }
    return m;
  }

  std::int64_t TrialsPerRep() const {
    if (w_.kind == Kind::kTraffic) return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(outputs_.at("trace.episodes")));
    return static_cast<std::int64_t>(w_.trials) *
           static_cast<std::int64_t>(points_.size());
  }

  // `probe_scale` turns this process's raw host times into probe units:
  // run.py scales set-up time by it. A set-up-only process probes the host
  // right after set-up has ended; a measuring process uses its slices'
  // probes.
  void Report(double ready, bool trace, bool setup_only) const {
    harness::JsonWriter json(std::cout);
    json.BeginObject();
    json.Key("ready_s").Value(ready);
    std::vector<double> probes;
    for (const std::vector<SliceTime>& rep : reps_) {
      for (const SliceTime& t : rep) probes.push_back(t.probe);
    }
    json.Key("probe_scale").Value(
        setup_only ? ProbeScale() : kProbeReferenceS / Median(probes));
    if (setup_only) {
      json.EndObject();
      json.Finish();
      return;
    }
    json.Key("workload").Value(w_.name);
    json.Key("seed").Value(static_cast<std::int64_t>(seed_));
    json.Key("crmc").Value(CrmcCommand());
    json.Key("host").BeginObject();
    json.Key("nproc").Value(
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    json.Key("simd_backend").Value(backend_);
    json.Key("compiler").Value(__VERSION__);
    json.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
    json.EndObject();
    json.Key("reps").Value(static_cast<std::int64_t>(reps_.size()));
    json.Key("trials_per_rep").Value(TrialsPerRep());
    json.Key("rep_wall_s").BeginArray();
    for (const std::vector<SliceTime>& rep : reps_) {
      double total = 0.0;
      for (const SliceTime& t : rep) total += t.wall;
      json.Value(total);
    }
    json.EndArray();
    // The raw host time behind wall_s.
    json.Key("raw_wall_s").Value(RawSum(reps_, &SliceTime::wall));
    WriteMap(json, "outputs", outputs_);
    WriteMap(json, "golden", golden_);
    json.Key("checks").BeginArray();
    for (const Check& c : checks_) {
      json.BeginObject();
      json.Key("name").Value(c.name);
      json.Key("ok").Value(c.ok);
      json.Key("detail").Value(c.detail);
      json.EndObject();
    }
    json.EndArray();
    if (trace) {
      WriteMap(json, "layers", layers_);
    } else {
      WriteMap(json, "e2e", EndToEnd());
    }
    json.Key("sink").Value(static_cast<std::int64_t>(g_sink & 0xffff));
    json.EndObject();
    json.Finish();
  }

  void Finish() {
    SideOutputs();
    CheckParity();
    CheckInvariants();
  }

 private:
  double Delay(double seconds) const {
    if (inject_delay_ <= 0.0) return seconds;
    const Clock::time_point start = Clock::now();
    SpinFor(inject_delay_ * seconds);
    return seconds + Since(start);
  }

  std::string CrmcCommand() const {
    if (w_.kind == Kind::kTraffic) {
      return w_.crmc + " --seed " + std::to_string(TraceBaseSeed(seed_, 0)) +
             " --traffic-seed " + std::to_string(TraceSeed(seed_, 0));
    }
    if (w_.oracle) {
      return w_.crmc + " --seed " + std::to_string(BaseSeed(seed_));
    }
    // race/sweep run base seed 0x5eed; the shape is what matches.
    return w_.crmc;
  }

  static void WriteMap(harness::JsonWriter& json, const std::string& key,
                       const std::map<std::string, double>& values) {
    json.Key(key).BeginObject();
    for (const auto& [name, value] : values) json.Key(name).Value(value);
    json.EndObject();
  }

  void ProbeKernels(std::int32_t slots, std::int32_t channels) {
    constexpr std::int64_t kItems = std::int64_t{1} << 22;
    const std::int64_t reps = std::max<std::int64_t>(1, kItems / slots);
    const double items = static_cast<double>(reps) * slots;
    std::vector<support::RandomSource> rng(static_cast<std::size_t>(slots));
    simd::SeedStreams(BaseSeed(seed_), 0, w_.rng, rng);
    std::vector<std::int32_t> alive(static_cast<std::size_t>(slots));
    std::iota(alive.begin(), alive.end(), 0);
    std::vector<std::uint8_t> mask(alive.size());
    std::vector<std::int32_t> picks(alive.size());
    std::vector<std::int32_t> ids(alive.size());
    std::vector<std::uint16_t> counts(static_cast<std::size_t>(channels) + 3);
    std::vector<std::int32_t> touched;
    std::vector<std::uint8_t> lone(alive.size());
    const support::BatchBernoulli coin(0.5);
    const support::BatchUniformInt dist(1, channels);

    Clock::time_point start = Clock::now();
    for (std::int64_t r = 0; r < reps; ++r) {
      g_sink += static_cast<std::uint64_t>(
          simd::CoinMask(coin, rng, alive, mask));
    }
    layers_["simd.coin_mask.ns_per_item"] =
        1e9 * Since(start) * layer_scale_ / items;

    start = Clock::now();
    for (std::int64_t r = 0; r < reps; ++r) {
      simd::UniformFill(dist, rng, alive, picks);
      g_sink += static_cast<std::uint64_t>(picks[0]);
    }
    layers_["simd.uniform_fill.ns_per_item"] =
        1e9 * Since(start) * layer_scale_ / items;

    start = Clock::now();
    for (std::int64_t r = 0; r < reps; ++r) {
      g_sink += static_cast<std::uint64_t>(
          simd::ClassifyChannels(picks, 1, counts, touched, lone)
              .lone_channels);
    }
    layers_["simd.classify.ns_per_item"] =
        1e9 * Since(start) * layer_scale_ / items;

    start = Clock::now();
    for (std::int64_t r = 0; r < reps; ++r) {
      std::copy(alive.begin(), alive.end(), ids.begin());
      g_sink += simd::CompactKeep(ids, mask);
    }
    layers_["simd.compact.ns_per_item"] =
        1e9 * Since(start) * layer_scale_ / items;
  }

  double ProbeRng(support::RngKind kind, std::int32_t streams) {
    constexpr std::int64_t kDraws = std::int64_t{1} << 22;
    std::vector<support::RandomSource> rng;
    for (std::int32_t s = 0; s < streams; ++s) {
      rng.push_back(support::RandomSource::ForStream(
          BaseSeed(seed_), static_cast<std::uint64_t>(s), kind));
    }
    const std::int64_t rounds = kDraws / streams;
    const Clock::time_point start = Clock::now();
    std::uint64_t acc = 0;
    for (std::int64_t r = 0; r < rounds; ++r) {
      for (support::RandomSource& source : rng) acc ^= source.NextU64();
    }
    const double seconds = Since(start) * layer_scale_;
    g_sink += acc;
    return 1e9 * seconds / static_cast<double>(rounds * streams);
  }

  double ProbeResolver(std::int32_t slots, std::int32_t channels,
                       bool faulted) {
    constexpr std::int64_t kActions = std::int64_t{1} << 21;
    support::RandomSource rng(BaseSeed(seed_));
    std::vector<mac::Action> actions;
    for (std::int32_t i = 0; i < slots; ++i) {
      const auto ch =
          static_cast<mac::ChannelId>(rng.UniformInt(1, channels));
      actions.push_back(rng.Bernoulli(0.5) ? mac::Action::Transmit(ch)
                                           : mac::Action::Listen(ch));
    }
    mac::FaultSpec spec;
    spec.erasure_rate = 0.01;
    spec.jam_rate = 0.01;
    mac::FaultInjector faults(spec, BaseSeed(seed_));
    const std::vector<mac::ChannelId> jams = {mac::kPrimaryChannel};
    mac::Resolver resolver(channels);
    std::vector<mac::Feedback> feedback;
    const std::int64_t rounds = std::max<std::int64_t>(1, kActions / slots);
    const Clock::time_point start = Clock::now();
    for (std::int64_t r = 0; r < rounds; ++r) {
      const mac::RoundSummary summary =
          faulted ? resolver.Resolve(actions, feedback, &faults, jams)
                  : resolver.Resolve(actions, feedback);
      g_sink += static_cast<std::uint64_t>(summary.lone_deliveries);
    }
    return 1e9 * Since(start) * layer_scale_ /
           static_cast<double>(rounds * slots);
  }

  Workload w_;
  std::uint64_t seed_;
  double inject_delay_;
  const harness::AlgorithmInfo& info_;
  harness::ProtocolHandle handle_;
  std::vector<harness::TrialSpec> points_;
  std::string backend_;

  std::vector<Slice> slices_;
  std::vector<std::vector<SliceTime>> reps_;  // timed reps (traced: traced)
  double peak_rss_mb_ = 0.0;
  double first_slice_bytes_per_item_ = -1.0;  // peak-RSS growth, 1st slice
  double layer_scale_ = 1.0;  // ProbeLayers' timings into probe units
  bool deterministic_ = true;
  Outputs outputs_;
  Outputs golden_;
  EngineTotals direct_;  // the traced reps' direct runs; median seconds
  std::map<std::string, double> layers_;
  std::vector<Check> checks_;
};

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--inject-delay F]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  double inject_delay = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      name = value();
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--seconds") {
      seconds = std::stod(value());
    } else if (arg == "--trace") {
      trace = value() == "1";
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--inject-delay") {
      inject_delay = std::stod(value());
    } else {
      Usage("unknown argument " + arg);
    }
  }
  std::optional<Workload> workload;
  for (const Workload& w : Workloads()) {
    if (w.name == name) workload = w;
  }
  if (!workload) Usage("unknown workload '" + name + "'");

  Bench bench(*workload, seed, inject_delay);
  bench.SetUp();
  const double ready =
      std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
  if (setup_only) {
    bench.Report(ready, trace, true);
    return 0;
  }
  if (trace) {
    bench.MeasureTraced(seconds);
    bench.Finish();
    bench.ProbeLayers();
  } else {
    bench.Measure(seconds);
    bench.Finish();
  }
  bench.Report(ready, trace, false);
  return 0;
}
