// `train` (closed loop): OfflineTrainer::TrainTwoPhase on the default fluid
// single-flow CcEnv with a fixed iteration budget, repeated for the window.
// Rollout collection and the PPO update (double-precision nn) do the work.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/common/rng.h"
#include "src/common/serialization.h"
#include "src/core/offline_trainer.h"
#include "src/core/preference_model.h"
#include "src/envs/cc_env.h"
#include "src/rl/ppo.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mocc::OfflineTrainConfig;

// ω = 3 landmarks, 7 bootstrap + 3 rounds of 3 traversal iterations: one run
// is a whole two-phase training, short enough to repeat many times in a window.
// A run is also the latency sample. On a 4-vCPU Xeon VM it takes 0.5 to 0.95 s
// as the host's speed drifts, so a 45 s run times 47 to 90 of them and its
// tail is p75 either way (p90 would need 100 samples, p75 needs 40).
OfflineTrainConfig TrainConfig(uint64_t seed) {
  OfflineTrainConfig config;
  config.mocc.landmark_step_divisor = 4;
  config.bootstrap_iterations = 7;
  config.traversal_rounds = 3;
  config.parallel_envs = 1;  // the mocc_train default
  config.seed = seed;
  return config;
}

uint64_t WeightsChecksum(const mocc::PreferenceActorCritic& model) {
  std::ostringstream out(std::ios::binary);
  mocc::BinaryWriter writer(out, "PBCHKSUM", 1);
  model.Serialize(&writer);
  uint64_t h = 0;
  for (const char c : out.str()) {
    h = MixU64(h, static_cast<unsigned char>(c));
  }
  return h;
}

struct TrainRun {
  double train_s = 0.0;
  int iterations = 0;
  std::vector<double> iteration_us;
  uint64_t checksum = 0;
  bool ok = false;
};

// One complete two-phase training from a fresh model.
TrainRun TrainOnce(const OfflineTrainConfig& base) {
  TrainRun run;
  OfflineTrainConfig config = base;
  int64_t last_ns = 0;
  config.iteration_hook = [&](int, mocc::PpoStats*) {
    const int64_t now = NowNs();
    run.iteration_us.push_back(static_cast<double>(now - last_ns) * 1e-3);
    last_ns = now;
  };
  mocc::Rng rng(config.seed);
  mocc::PreferenceActorCritic model(config.mocc, &rng);
  mocc::OfflineTrainer trainer(&model, config);
  const int64_t t1 = NowNs();
  last_ns = t1;
  const mocc::OfflineTrainResult result = trainer.TrainTwoPhase();
  run.train_s = SecondsSince(t1);
  run.iterations = result.total_iterations;
  run.checksum = WeightsChecksum(model);
  run.ok = !result.watchdog_failed && !result.interrupted &&
           result.total_iterations == config.PlannedIterations();
  return run;
}

// Repeats TrainOnce for `window_s`, checking every run's final weights against
// the first (same seed, same weights).
struct TrainWindow {
  std::vector<double> iteration_us;
  std::vector<double> run_us;       // one per two-phase run
  std::vector<double> iters_per_s;  // one rate per two-phase run
  double train_s = 0.0;
  int64_t iterations = 0;
};

TrainWindow TrainFor(const OfflineTrainConfig& config, double window_s, uint64_t reference,
                     Report* report) {
  TrainWindow w;
  const int64_t t0 = NowNs();
  do {
    TrainRun run = TrainOnce(config);
    w.train_s += run.train_s;
    w.run_us.push_back(run.train_s * 1e6);
    w.iters_per_s.push_back(run.iterations / run.train_s);
    w.iterations += run.iterations;
    w.iteration_us.insert(w.iteration_us.end(), run.iteration_us.begin(),
                          run.iteration_us.end());
    report->ledger.Attempt("train_run");
    if (!run.ok || run.checksum != reference) {
      report->Mismatch("weights_checksum");
    }
  } while (SecondsSince(t0) < window_s);
  return w;
}

// Bench-side timing decorator: a span around every environment call.
class TimedEnv : public mocc::Env {
 public:
  explicit TimedEnv(mocc::CcEnv* env) : env_(env) {}
  std::vector<double> Reset() override {
    ScopedSpan span("envs.cc_env.reset");
    return env_->Reset();
  }
  mocc::StepResult Step(double action) override {
    ScopedSpan span("envs.cc_env.step");
    return env_->Step(action);
  }
  size_t ObservationDim() const override { return env_->ObservationDim(); }

 private:
  mocc::CcEnv* env_;
};

// The iteration RunIteration performs (one rollout per bootstrap objective,
// one joint update), rebuilt from the public PpoTrainer calls so collection and
// update can be timed apart.
class PpoMirror {
 public:
  explicit PpoMirror(const OfflineTrainConfig& config)
      : config_(config),
        rng_(config.seed),
        model_(config.mocc, &rng_),
        ppo_(&model_,
             [&config] {
               mocc::PpoConfig ppo = config.mocc.MakePpoConfig(config.seed);
               ppo.entropy_start = config.entropy_start;
               ppo.entropy_end = config.entropy_end;
               ppo.entropy_decay_iters = std::max(1, config.PlannedIterations());
               return ppo;
             }()),
        env_(config.mocc.MakeEnvConfig(), config.seed * 977 + 1),
        timed_(&env_) {}

  int64_t Iteration() {
    const std::vector<mocc::WeightVector>& objectives = config_.bootstrap_objectives;
    const int steps_each = std::max(
        64, ppo_.config().rollout_steps / static_cast<int>(objectives.size()));
    std::vector<mocc::RolloutBuffer> buffers;
    {
      ScopedSpan collect("rl.ppo.collect",
                         static_cast<int64_t>(steps_each) * objectives.size());
      for (const mocc::WeightVector& w : objectives) {
        env_.SetObjective(w);
        buffers.push_back(ppo_.CollectRollout(&timed_, steps_each));
      }
    }
    std::vector<const mocc::RolloutBuffer*> ptrs;
    int64_t samples = 0;
    for (const auto& b : buffers) {
      ptrs.push_back(&b);
      samples += static_cast<int64_t>(b.size());
    }
    {
      ScopedSpan update("rl.ppo.update", samples);
      ppo_.Update(ptrs);
    }
    if (observations_.empty()) {
      for (const auto& t : buffers.front().transitions) {
        observations_.push_back(t.observation);
        if (observations_.size() == 256) {
          break;
        }
      }
    }
    return samples;
  }

  mocc::PreferenceActorCritic* model() { return &model_; }
  const std::vector<std::vector<double>>& observations() const { return observations_; }

 private:
  OfflineTrainConfig config_;
  mocc::Rng rng_;
  mocc::PreferenceActorCritic model_;
  mocc::PpoTrainer ppo_;
  mocc::CcEnv env_;
  TimedEnv timed_;
  std::vector<std::vector<double>> observations_;
};

// Final weights of the real trainer stopped after `iterations` iterations.
uint64_t TrainerChecksumAfter(const OfflineTrainConfig& base, int iterations) {
  OfflineTrainConfig config = base;
  config.stop_after_iterations = iterations;
  mocc::Rng rng(config.seed);
  mocc::PreferenceActorCritic model(config.mocc, &rng);
  mocc::OfflineTrainer trainer(&model, config);
  trainer.TrainTwoPhase();
  return WeightsChecksum(model);
}

// Mean wall time of one mirrored iteration over `window_s`.
double MirrorIterationNs(PpoMirror* mirror, double window_s) {
  int iterations = 0;
  const int64_t t0 = NowNs();
  do {
    mirror->Iteration();
    ++iterations;
  } while (SecondsSince(t0) < window_s);
  return static_cast<double>(NowNs() - t0) / iterations;
}

}  // namespace

void RunTrain(const Args& args, Report* report) {
  const OfflineTrainConfig config = TrainConfig(args.seed);
  // Warm-up run: discarded from timing; its weights are the reference every
  // later run of the same seed must reproduce.
  const TrainRun warm = TrainOnce(config);
  if (!warm.ok) {
    report->Mismatch("train_run");
  }
  const TrainWindow w = TrainFor(config, args.seconds, warm.checksum, report);
  // Set-up: a fresh model and its trainer, as each two-phase run builds them.
  AddSetup(report, [&config] {
    mocc::Rng rng(config.seed);
    mocc::PreferenceActorCritic model(config.mocc, &rng);
    mocc::OfflineTrainer trainer(&model, config);
  });
  AddThroughput(report, "train.iters_per_s (per two-phase run)", w.iters_per_s);
  AddLatency(report, "train.run_us", w.run_us);
}

void TraceTrain(const Args& args, double budget_s, Report* report, TraceTotals* totals) {
  const OfflineTrainConfig config = TrainConfig(args.seed);
  Tracer& tracer = Tracer::Get();

  // Untraced end-to-end reference: the real trainer's iteration time.
  const TrainRun warm = TrainOnce(config);
  const TrainWindow e2e = TrainFor(config, budget_s * 0.4, warm.checksum, report);
  const double e2e_iteration_ns = e2e.train_s * 1e9 / e2e.iterations;
  report->Add("core.trainer.iteration_ms", Median(e2e.iteration_us) * 1e-3, "ms");

  // The mirror must leave the weights the real trainer leaves after its
  // bootstrap phase; these iterations also warm it up.
  PpoMirror mirror(config);
  for (int i = 0; i < config.bootstrap_iterations; ++i) {
    mirror.Iteration();
  }
  report->ledger.Attempt("mirror_check");
  if (WeightsChecksum(*mirror.model()) !=
      TrainerChecksumAfter(config, config.bootstrap_iterations)) {
    report->Mismatch("mirror_check");
  }
  const double untraced_ns = MirrorIterationNs(&mirror, budget_s * 0.25);
  tracer.Enable(1);
  const double traced_ns = MirrorIterationNs(&mirror, budget_s * 0.25);
  {
    // Double-precision single-row forwards on observations the policy saw.
    const auto& obs = mirror.observations();
    double mean = 0.0, value = 0.0;
    for (int rep = 0; rep < 200; ++rep) {
      ScopedSpan span("nn.double.forward_row", static_cast<int64_t>(obs.size()));
      for (const auto& o : obs) {
        mirror.model()->ForwardRow(o, &mean, &value);
      }
    }
  }
  tracer.Disable();
  totals->overhead.push_back(traced_ns / untraced_ns - 1.0);

  const std::vector<Span> spans = DrainSpans(args, "train", report);
  const auto stats = Aggregate(spans);
  const SpanStats& collect = stats.at("rl.ppo.collect");
  const SpanStats& update = stats.at("rl.ppo.update");
  const SpanStats& step = stats.at("envs.cc_env.step");
  report->Add("rl.ppo.collect.ns_per_step", collect.NsPerItem(), "ns");
  report->Add("rl.ppo.update.ns_per_sample", update.NsPerItem(), "ns");
  report->Add("rl.ppo.collect_share",
              collect.total_ns / (collect.total_ns + update.total_ns), "frac");
  report->Add("rl.policy_sample.ns_per_step", collect.SelfNsPerItem(), "ns");
  report->Add("envs.cc_env.step_ns", step.total_ns / step.count, "ns");
  report->Add("nn.double.forward_row_ns", stats.at("nn.double.forward_row").NsPerItem(),
              "ns");
  const double layer_ns_per_iteration =
      (collect.total_ns + update.total_ns) / static_cast<double>(collect.count);
  report->Add("train.unattributed_share", 1.0 - layer_ns_per_iteration / e2e_iteration_ns,
              "frac");
}

}  // namespace perfbench
