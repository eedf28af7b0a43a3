#include "sim/batch_engine.h"

#include "simd/kernels.h"

namespace crmc::sim {

namespace {

// BatchEngine::Run's NodeStepper: a StepProgram over columnar node state.
// It owns the per-epoch stream seeding, program.Reset, and the fused-round
// hook around StepProgram::FastRound.
class ProgramStepper final : public NodeStepper {
 public:
  ProgramStepper(const EngineConfig& config, std::int64_t population,
                 StepProgram& program,
                 std::vector<support::RandomSource>& rng, bool fused_rounds)
      : config_(config), program_(program), rng_(rng), fuses_(fused_rounds) {
    ctx_.population = population;
    ctx_.num_active = config.num_active;
    ctx_.channels = config.channels;
  }

  // Seeds node s's stream exactly as Engine::Run seeds node s's coroutine
  // (ForStream(epoch_seed, s + 1)); every node that has not crashed is
  // alive from the first round.
  void BeginEpoch(std::uint64_t epoch_seed,
                  std::span<const std::uint8_t> crashed,
                  std::vector<NodeId>& alive) override {
    const auto n = static_cast<std::size_t>(config_.num_active);
    rng_.resize(n);
    simd::SeedStreams(epoch_seed, 1, config_.rng, rng_);
    ctx_.rng = rng_;
    program_.Reset(ctx_);
    for (std::size_t i = 0; i < n; ++i) {
      if (!crashed[i]) alive.push_back(static_cast<NodeId>(i));
    }
  }

  void Emit(std::int64_t round, std::span<const NodeId> alive,
            std::span<mac::Action> actions) override {
    ctx_.round = round;
    program_.EmitActions(ctx_, alive, actions);
  }

  // All step-program assumption checks fire in Advance (Emit paths use hard
  // CRMC_CHECKs only), so the loop's abort-or-retry rule around Advance is
  // bit-exact with the coroutine engine's resume loop.
  void Advance(std::int64_t, std::span<const NodeId> alive,
               std::span<const mac::Action> actions,
               std::span<const mac::Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    program_.Advance(ctx_, alive, actions, feedback, finished);
  }

  bool fuses() const override { return fuses_; }

  // FastRound implementations lean on lockstep invariants ("survivors
  // share identical bounds/phase") that only hold while every past round
  // was pristine: a single jam can split previously-lockstep node states
  // (one node sees a forced collision where its peer saw a clean
  // delivery), and the programs do not re-verify the invariant per round.
  // A jam therefore drops the run to the materialized path — but only
  // until the program reports the split healed: on every later jam-free
  // round LockstepRestored is asked whether the survivors are back in a
  // fused-representable shape, and the run re-fuses when they are. A
  // budget-k adversary costs O(k) materialized windows instead of pinning
  // the whole run. Fabricated rounds never reach here: they only exist
  // under the robust layer, which the loop's fused gate excludes.
  bool FusedRound(std::int64_t round, std::span<const NodeId> alive,
                  std::span<const mac::ChannelId> adv_jams,
                  std::span<std::int64_t> node_tx,
                  std::span<std::uint8_t> finished,
                  FastRoundEffects* effects) override {
    ctx_.round = round;
    perturbed_ = perturbed_ || !adv_jams.empty();
    if (perturbed_ && adv_jams.empty() &&
        program_.LockstepRestored(ctx_, alive)) {
      perturbed_ = false;
    }
    return !perturbed_ &&
           program_.FastRound(ctx_, alive, node_tx, finished, effects);
  }

 private:
  const EngineConfig& config_;
  StepProgram& program_;
  std::vector<support::RandomSource>& rng_;
  BatchContext ctx_;
  bool fuses_;
  bool perturbed_ = false;
};

}  // namespace

RunResult BatchEngine::Run(const EngineConfig& config, StepProgram& program) {
  const std::int64_t population = ValidateEngineConfig(config);
  ProgramStepper stepper(config, population, program, rng_,
                         fused_rounds_enabled_);
  return loop_.Run(config, population, stepper);
}

}  // namespace crmc::sim
