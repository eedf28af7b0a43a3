#include "sim/engine.h"

#include <algorithm>
#include <deque>

#include "sim/round_loop.h"
#include "support/assert.h"
#include "support/rng.h"

namespace crmc::sim {

namespace {

// Below this many node_reports a direct scan beats building the index.
constexpr std::size_t kReportIndexThreshold = 16;

}  // namespace

const RunResult::ReportIndex& RunResult::Index() const {
  if (!report_index_) {
    auto idx = std::make_shared<ReportIndex>();
    for (const NodeReport& r : node_reports) {
      for (const auto& [key, value] : r.phase_marks) {
        auto [it, inserted] = idx->last_phase_marks.try_emplace(key, value);
        if (!inserted && value > it->second) it->second = value;
      }
      for (const auto& [key, value] : r.metrics) {
        idx->metric_values[key].push_back(value);  // node order preserved
      }
    }
    report_index_ = std::move(idx);
  }
  return *report_index_;
}

std::int64_t RunResult::LastPhaseMark(const std::string& name) const {
  if (node_reports.size() >= kReportIndexThreshold) {
    const ReportIndex& idx = Index();
    const auto it = idx.last_phase_marks.find(name);
    return it == idx.last_phase_marks.end() ? -1 : it->second;
  }
  std::int64_t best = -1;
  for (const NodeReport& r : node_reports) {
    auto it = r.phase_marks.find(name);
    if (it != r.phase_marks.end() && it->second > best) best = it->second;
  }
  return best;
}

std::vector<std::int64_t> RunResult::MetricValues(
    const std::string& name) const {
  if (node_reports.size() >= kReportIndexThreshold) {
    const ReportIndex& idx = Index();
    const auto it = idx.metric_values.find(name);
    return it == idx.metric_values.end() ? std::vector<std::int64_t>{}
                                         : it->second;
  }
  std::vector<std::int64_t> out;
  for (const NodeReport& r : node_reports) {
    for (const auto& [key, value] : r.metrics) {
      if (key == name) out.push_back(value);
    }
  }
  return out;
}

std::int64_t ValidateEngineConfig(const EngineConfig& config) {
  CRMC_REQUIRE_MSG(config.num_active >= 1,
                   "need at least one activated node, got "
                       << config.num_active);
  CRMC_REQUIRE_MSG(config.channels >= 1,
                   "need at least one channel, got " << config.channels);
  CRMC_REQUIRE_MSG(config.max_rounds >= 1,
                   "max_rounds must be at least 1, got " << config.max_rounds);
  const std::int64_t population =
      config.population == 0 ? config.num_active : config.population;
  CRMC_REQUIRE_MSG(population >= config.num_active,
                   "num_active " << config.num_active
                                 << " exceeds population " << population);
  config.faults.Validate();
  config.adversary.Validate();
  config.robust.Validate();
  // One jamming source at a time: an adversary (reactive *or* oblivious)
  // combined with an explicit jam_rate would silently double-jam — the
  // oblivious_rate case would even draw twice from one stream. Distinct
  // message, unit-tested.
  CRMC_REQUIRE_MSG(
      !config.adversary.Active() || config.faults.jam_rate == 0.0,
      "conflicting fault configuration: --adversary "
          << adversary::ToString(config.adversary.kind)
          << " cannot be combined with an explicit --jam-rate "
          << config.faults.jam_rate
          << " (use --adversary-rate for oblivious_rate)");
  for (const adversary::ScriptEntry& e : config.adversary.script) {
    CRMC_REQUIRE_MSG(e.channel <= config.channels,
                     "scripted adversary jams channel "
                         << e.channel << " but the network has only "
                         << config.channels << " channels");
  }
  return population;
}

mac::FaultSpec EffectiveFaultSpec(const EngineConfig& config) {
  mac::FaultSpec spec = config.faults;
  if (config.adversary.kind == adversary::Kind::kObliviousRate) {
    spec.jam_rate = config.adversary.rate;
  }
  return spec;
}

// Engine::Run's NodeStepper: one protocol coroutine per node. It owns the
// contexts and tasks, the first kick of every coroutine, the wakeup
// transform's auto-beacon, and the per-node instrumentation reports.
class CoroutineStepper final : public NodeStepper {
 public:
  CoroutineStepper(const EngineConfig& config, std::int64_t population,
                   const ProtocolFactory& protocol)
      : config_(config),
        population_(population),
        protocol_(protocol),
        beacon_emitted_(static_cast<std::size_t>(config.num_active), 0) {
    // Unique IDs for baselines that assume them (sampled from [1, n]).
    // Sampled once from the original seed: a node keeps its identity
    // across robust epoch restarts.
    support::RandomSource id_rng =
        support::RandomSource::ForStream(config.seed, 0x1d5eed, config.rng);
    unique_ids_ = support::SampleWithoutReplacement(
        population, config.num_active, id_rng);
  }

  // Rebuilds every context and coroutine from `epoch_seed` (crashed slots
  // hold finished placeholder tasks) and kicks each live coroutine to its
  // first round request; a node that completes at the kick never acts.
  void BeginEpoch(std::uint64_t epoch_seed,
                  std::span<const std::uint8_t> crashed,
                  std::vector<NodeId>& alive) override {
    contexts_.clear();
    tasks_.clear();
    for (NodeId i = 0; i < config_.num_active; ++i) {
      contexts_.emplace_back(
          i, population_, config_.num_active, config_.channels,
          unique_ids_[static_cast<std::size_t>(i)],
          support::RandomSource::ForStream(
              epoch_seed, static_cast<std::uint64_t>(i) + 1, config_.rng));
    }
    for (NodeId i = 0; i < config_.num_active; ++i) {
      if (crashed[static_cast<std::size_t>(i)]) {
        tasks_.emplace_back();
        continue;
      }
      tasks_.push_back(protocol_(contexts_[static_cast<std::size_t>(i)]));
      CRMC_CHECK_MSG(tasks_.back().Valid(),
                     "protocol factory returned no task");
    }
    std::fill(beacon_emitted_.begin(), beacon_emitted_.end(), 0);
    for (NodeId i = 0; i < config_.num_active; ++i) {
      if (crashed[static_cast<std::size_t>(i)]) continue;
      auto& task = tasks_[static_cast<std::size_t>(i)];
      task.Resume();
      if (task.Done()) {
        task.RethrowIfFailed();
      } else {
        CRMC_CHECK_MSG(contexts_[static_cast<std::size_t>(i)].has_pending_,
                       "protocol suspended without submitting a round action");
        alive.push_back(i);
      }
    }
  }

  // Collects each node's pending action. A node in auto-beacon mode first
  // transmits on the primary channel and holds its action for the next
  // round.
  void Emit(std::int64_t, std::span<const NodeId> alive,
            std::span<mac::Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      NodeContext& ctx = contexts_[s];
      if (ctx.auto_beacon_ && !beacon_emitted_[s]) {
        actions[k] = mac::Action::Transmit(mac::kPrimaryChannel);
        beacon_emitted_[s] = 1;
        continue;
      }
      actions[k] = ctx.pending_action_;
      ctx.has_pending_ = false;
      beacon_emitted_[s] = 0;
    }
  }

  // Resumes every coroutine to its next round request or completion. A
  // node that spent the round on a beacon is not resumed: its protocol
  // action is still pending, so it stays alive.
  void Advance(std::int64_t round, std::span<const NodeId> alive,
               std::span<const mac::Action>,
               std::span<const mac::Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      NodeContext& ctx = contexts_[s];
      ctx.round_ = round;
      if (beacon_emitted_[s]) continue;
      ctx.feedback_ = feedback[k];
      CRMC_CHECK(ctx.resume_point_);
      ctx.resume_point_.resume();
      auto& task = tasks_[s];
      if (task.Done()) {
        task.RethrowIfFailed();
        finished[k] = 1;
      } else {
        CRMC_CHECK_MSG(ctx.has_pending_,
                       "protocol suspended without submitting a round action");
      }
    }
  }

  // node_reports come from the final epoch's nodes (earlier epochs'
  // protocol state is discarded on restart).
  void AppendReports(RunResult& result) const {
    for (const NodeContext& ctx : contexts_) {
      if (ctx.phase_marks().empty() && ctx.metrics().empty()) continue;
      NodeReport report;
      report.index = ctx.index();
      report.finished = tasks_[static_cast<std::size_t>(ctx.index())].Done();
      report.phase_marks = ctx.phase_marks();
      report.metrics = ctx.metrics();
      result.node_reports.push_back(std::move(report));
    }
  }

 private:
  const EngineConfig& config_;
  std::int64_t population_;
  const ProtocolFactory& protocol_;
  std::vector<std::int64_t> unique_ids_;
  std::deque<NodeContext> contexts_;
  std::vector<ProtocolTask> tasks_;
  // beacon_emitted_[i] == 1 means the beacon for node i's pending action
  // already went out, so the action itself runs next.
  std::vector<std::uint8_t> beacon_emitted_;
};

RunResult Engine::Run(const EngineConfig& config,
                      const ProtocolFactory& protocol) {
  const std::int64_t population = ValidateEngineConfig(config);
  CRMC_REQUIRE(protocol != nullptr);
  CoroutineStepper stepper(config, population, protocol);
  RoundLoop loop;
  RunResult result = loop.Run(config, population, stepper);
  stepper.AppendReports(result);
  return result;
}

}  // namespace crmc::sim
