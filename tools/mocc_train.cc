// mocc_train — offline-trains a MOCC model (two-phase, §4.2) and saves it to a file.
//
// Usage:
//   mocc_train [--out PATH] [--bootstrap N] [--rounds N] [--divisor D] [--seed S]
//              [--parallel-envs K] [--scenario LIST] [--list-scenarios] [--individual]
//              [--checkpoint PATH] [--checkpoint-interval N] [--resume]
//              [--stop-after N]
//
//   --out PATH         output model file (default mocc_model.bin)
//   --bootstrap N      bootstrap-phase iterations (default 100)
//   --rounds N         fast-traversing passes over the landmark grid (default 3)
//   --divisor D        simplex step divisor, an integer >= 3; omega = (D-1)(D-2)/2
//                      (default 10 -> 36)
//   --seed S           RNG seed (default 7)
//   --parallel-envs K  parallel rollout environments (default 1)
//   --scenario LIST    comma-separated scenario names (see --list-scenarios); env
//                      slot i trains on LIST[i % |LIST|]. Multi-flow scenarios train
//                      the shared policy on a shared-bottleneck PacketNetwork.
//                      Heterogeneous-objective scenarios (mixed-objective,
//                      sampled-objective, preference-switch, ...) assign per-agent
//                      weights themselves — the trainer leaves their objectives
//                      alone and their trajectories join the same joint update.
//   --list-scenarios   print the scenario catalog and exit
//   --ecn              train with the ECN observation channel: history entries
//                      widen to <l, p, q, ecn> and the saved model's obs_dim
//                      changes accordingly (pair with an ECN-marking scenario,
//                      e.g. red-ecn, for the channel to carry signal)
//   --individual       train each landmark independently instead (Fig 19 baseline)
//
// Crash safety (two-phase training only):
//   --checkpoint PATH          write a training checkpoint (model + optimizer +
//                              RNG streams + counters + env state) to PATH every
//                              --checkpoint-interval iterations and on SIGINT/
//                              SIGTERM, via atomic rename
//   --checkpoint-interval N    iterations between checkpoints (default 20)
//   --resume                   resume from --checkpoint PATH; the continued run is
//                              bit-identical with an uninterrupted one. A missing
//                              checkpoint starts fresh; a corrupt or mismatched
//                              one fails with exit code 1
//   --stop-after N             stop cleanly (with a final checkpoint) after N
//                              global iterations — crash-drill / test hook
//
// Exit codes: 0 success, 1 I/O or resume failure, 2 bad usage, 3 interrupted by
// signal (final checkpoint written), 4 training watchdog exhausted its retries.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/core/offline_trainer.h"
#include "src/core/presets.h"
#include "src/envs/scenario.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int /*signum*/) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace mocc;
  std::string out_path = "mocc_model.bin";
  OfflineTrainConfig config = StandardOfflinePreset();
  bool individual = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--bootstrap") {
      config.bootstrap_iterations = std::atoi(next());
    } else if (arg == "--rounds") {
      config.traversal_rounds = std::atoi(next());
    } else if (arg == "--divisor") {
      // The landmark grid holds (D-1)(D-2)/2 objectives: D < 3 leaves it empty.
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      const long divisor = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE || divisor < 3 ||
          divisor > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "--divisor must be an integer >= 3, got '%s'\n", text);
        return 2;
      }
      config.mocc.landmark_step_divisor = static_cast<int>(divisor);
    } else if (arg == "--seed") {
      config.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--parallel-envs") {
      config.parallel_envs = std::atoi(next());
    } else if (arg == "--scenario") {
      std::string error;
      auto scenarios = ScenarioRegistry::Global().ResolveList(next(), &error);
      if (!scenarios.has_value()) {
        std::fprintf(stderr, "--scenario: %s (try --list-scenarios)\n", error.c_str());
        return 2;
      }
      config.scenarios = std::move(*scenarios);
    } else if (arg == "--list-scenarios") {
      PrintScenarioCatalog(stdout);
      return 0;
    } else if (arg == "--ecn") {
      config.mocc.ecn_signal = true;
    } else if (arg == "--individual") {
      individual = true;
    } else if (arg == "--checkpoint") {
      config.checkpoint_path = next();
    } else if (arg == "--checkpoint-interval") {
      config.checkpoint_interval = std::atoi(next());
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg == "--stop-after") {
      config.stop_after_iterations = std::atoi(next());
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: mocc_train [--out PATH] [--bootstrap N] [--rounds N]\n"
                  "                  [--divisor D] [--seed S] [--parallel-envs K]\n"
                  "                  [--scenario LIST] [--list-scenarios] [--ecn]\n"
                  "                  [--individual] [--checkpoint PATH]\n"
                  "                  [--checkpoint-interval N] [--resume]\n"
                  "                  [--stop-after N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (individual && (config.resume || !config.checkpoint_path.empty())) {
    std::fprintf(stderr, "--checkpoint/--resume only apply to two-phase training\n");
    return 2;
  }

  // SIGINT/SIGTERM stop training at the next iteration boundary; the trainer
  // writes a final checkpoint (when --checkpoint is set) before returning.
  config.interrupt_flag = &g_interrupted;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const int omega = ObjectiveGridSize(config.mocc.landmark_step_divisor);
  std::printf("training MOCC: omega=%d landmarks, %d bootstrap iters, %d rounds, %s\n",
              omega, config.bootstrap_iterations, config.traversal_rounds,
              individual ? "INDIVIDUAL (no transfer)" : "two-phase");
  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  if (!config.scenarios.empty()) {
    std::printf("scenarios (%d env slots):", trainer.slot_count());
    for (const Scenario& s : config.scenarios) {
      std::printf(" %s", s.name.c_str());
    }
    std::printf("\n");
  }
  const OfflineTrainResult result =
      individual ? trainer.TrainIndividually() : trainer.TrainTwoPhase();
  if (result.resume_failed) {
    std::fprintf(stderr, "--resume: %s is corrupt or from a different config\n",
                 config.checkpoint_path.c_str());
    return 1;
  }
  if (result.start_iteration > 0) {
    std::printf("resumed from iteration %d\n", result.start_iteration);
  }
  if (result.watchdog_rollbacks > 0) {
    std::printf("watchdog rollbacks: %d\n", result.watchdog_rollbacks);
  }
  if (!result.reward_curve.empty()) {
    std::printf("%s: %d iterations in %.1f s; training reward %.3f -> %.3f\n",
                result.interrupted ? "interrupted" : "done", result.total_iterations,
                result.wall_seconds, result.reward_curve.front(),
                result.reward_curve.back());
  }
  if (!model.SaveToFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("model saved to %s (%zu parameters)\n", out_path.c_str(),
              model.ParameterCount());
  if (result.watchdog_failed) {
    std::fprintf(stderr,
                 "training watchdog exhausted its retries; model saved at the last "
                 "healthy state\n");
    return 4;
  }
  if (result.interrupted) {
    return 3;
  }
  return 0;
}
