// Quick machine-readable performance report for the two hot loops behind the
// paper's Figure 17 (per-MI policy-inference overhead) and Figure 19 (rollout
// collection throughput for offline training). Runs in seconds — no model zoo,
// no long training — and writes BENCH_report.json so the perf trajectory is
// tracked across PRs. Human-readable numbers go to stdout.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_support.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/mocc_config.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/envs/cc_env.h"
#include "src/nn/mlp.h"
#include "src/nn/simd/dispatch.h"
#include "src/rl/actor_critic.h"
#include "src/rl/ppo.h"

// ASan detection across compilers: gcc defines __SANITIZE_ADDRESS__, clang
// reports it through __has_feature.
#if defined(__has_feature)
#define MOCC_ASAN_FEATURE __has_feature(address_sanitizer)
#else
#define MOCC_ASAN_FEATURE 0
#endif

using namespace mocc;

namespace {

// One rollout-collection setup: `total_steps` transitions split across
// `n_envs` environments per Collect() (the offline trainer's per-iteration
// collection pattern), serially or on the shared ThreadPool.
class RolloutCollection {
 public:
  RolloutCollection(int n_envs, int total_steps, bool parallel)
      : rng_(17),
        model_(config_, &rng_),
        trainer_(&model_, config_.MakePpoConfig(/*seed=*/5)),
        steps_each_(total_steps / n_envs) {
    trainer_.set_parallel_collection(parallel);
    for (int i = 0; i < n_envs; ++i) {
      envs_.push_back(std::make_unique<CcEnv>(config_.MakeEnvConfig(), 1000 + 13 * i));
      raw_.push_back(envs_.back().get());
    }
  }

  void Collect() { trainer_.CollectRolloutsParallel(raw_, steps_each_); }

 private:
  MoccConfig config_;
  Rng rng_;
  PreferenceActorCritic model_;
  PpoTrainer trainer_;
  int steps_each_;
  std::vector<std::unique_ptr<CcEnv>> envs_;
  std::vector<Env*> raw_;
};

}  // namespace

int main() {
  MoccConfig config;

  BenchJson json("report");
  json.Add("hardware_concurrency",
           static_cast<double>(ThreadPool::Shared().size()));

  // Which kernel tier CPUID picked for this run — the denominator/numerator
  // rates below are only comparable across hosts with the tier attached.
  json.AddString("simd_tier", simd::TierName(simd::ActiveTier()));
  std::printf("simd tier: %s%s\n", simd::TierName(simd::ActiveTier()),
              simd::ForcedScalar() ? " (forced)" : "");

  // --- Single-observation inference throughput (Figure 17's budget). ---
  // The int8 speedup gate rides on a ratio of adjacent measurements, so a
  // frequency shift on a shared vCPU can sink it spuriously; per the repo-wide
  // remeasure rule a failing verdict gets remeasured (whole path set, per-field
  // max) before it counts.
  InferencePathRates rates = MeasureInferencePaths(config);
  constexpr double kInt8VsF32Gate = 1.5;      // quantized row vs f32 row
  const bool scalar_tier = simd::ActiveTier() == simd::Tier::kScalar;
  for (int retry = 0; retry < 2 && !scalar_tier; ++retry) {
    if (rates.int8_row_ops_per_sec >= kInt8VsF32Gate * rates.fast_row_f32_ops_per_sec) {
      break;
    }
    std::fprintf(stderr, "[bench] simd speedup gate remeasuring (attempt %d)\n",
                 retry + 1);
    const InferencePathRates again = MeasureInferencePaths(config);
    rates.batched_ops_per_sec = std::max(rates.batched_ops_per_sec, again.batched_ops_per_sec);
    rates.fast_row_ops_per_sec = std::max(rates.fast_row_ops_per_sec, again.fast_row_ops_per_sec);
    rates.fast_row_f32_ops_per_sec =
        std::max(rates.fast_row_f32_ops_per_sec, again.fast_row_f32_ops_per_sec);
    rates.int8_row_ops_per_sec = std::max(rates.int8_row_ops_per_sec, again.int8_row_ops_per_sec);
  }
  const double batched_ops = rates.batched_ops_per_sec;
  const double row_ops = rates.fast_row_ops_per_sec;
  const double f32_ops = rates.fast_row_f32_ops_per_sec;
  const double int8_ops = rates.int8_row_ops_per_sec;

  json.Add("inference_batched_ops_per_sec", batched_ops);
  json.Add("inference_fast_row_ops_per_sec", row_ops);
  json.Add("inference_fast_row_f32_ops_per_sec", f32_ops);
  json.Add("inference_int8_row_ops_per_sec", int8_ops);
  json.Add("fast_row_speedup_vs_batched", batched_ops > 0.0 ? row_ops / batched_ops : 0.0);
  json.Add("f32_row_speedup_vs_double_row", row_ops > 0.0 ? f32_ops / row_ops : 0.0);
  json.Add("int8_row_speedup_vs_f32", f32_ops > 0.0 ? int8_ops / f32_ops : 0.0);
  std::printf("single-obs inference ops/sec:\n");
  std::printf("  batched (alloc-free)   %12.0f\n", batched_ops);
  std::printf("  fused single-row       %12.0f  (%.1fx vs batched)\n", row_ops,
              batched_ops > 0.0 ? row_ops / batched_ops : 0.0);
  std::printf("  fused single-row f32   %12.0f  (%.2fx vs double row)\n", f32_ops,
              row_ops > 0.0 ? f32_ops / row_ops : 0.0);
  std::printf("  int8 single-row        %12.0f  (%.2fx vs f32 row)\n", int8_ops,
              f32_ops > 0.0 ? int8_ops / f32_ops : 0.0);
  if (!scalar_tier && int8_ops < kInt8VsF32Gate * f32_ops) {
    std::fprintf(stderr, "WARN: int8 row is only %.2fx the f32 row (gate %.1fx)\n",
                 f32_ops > 0.0 ? int8_ops / f32_ops : 0.0, kInt8VsF32Gate);
  }

  // --- Rollout collection scaling (Figure 19's mechanism). ---
  // One collection is ~10 ms, so a single timed call measures scheduler noise.
  // As in bench_fleet: one discarded warm-up collection, then alternating
  // serial/pool windows of >= 0.25 s (MeasureOpsPerSec, itself warm-up
  // discarding); the report is the median paired ratio with its spread.
  const int total_steps = 4096;
  constexpr int kRolloutPairs = 5;
  constexpr double kRolloutWindowS = 0.25;
  RolloutCollection serial_1env(1, total_steps, /*parallel=*/false);
  RolloutCollection serial_4env(4, total_steps, /*parallel=*/false);
  RolloutCollection pool_4env(4, total_steps, /*parallel=*/true);
  pool_4env.Collect();  // warm-up: pool threads, allocator, caches
  const double serial_1env_rate =
      MeasureOpsPerSec([&] { serial_1env.Collect(); }, kRolloutWindowS);
  std::vector<double> serial_runs, pool_runs, rollout_ratios;
  for (int pair = 0; pair < kRolloutPairs; ++pair) {
    const double serial_rate =
        MeasureOpsPerSec([&] { serial_4env.Collect(); }, kRolloutWindowS);
    const double pool_rate = MeasureOpsPerSec([&] { pool_4env.Collect(); }, kRolloutWindowS);
    serial_runs.push_back(serial_rate > 0.0 ? 1.0 / serial_rate : 0.0);
    pool_runs.push_back(pool_rate > 0.0 ? 1.0 / pool_rate : 0.0);
    rollout_ratios.push_back(serial_rate > 0.0 ? pool_rate / serial_rate : 0.0);
  }
  const double serial_1env_s = serial_1env_rate > 0.0 ? 1.0 / serial_1env_rate : 0.0;
  const double serial_4env_s = Median(serial_runs);
  const double pool_4env_s = Median(pool_runs);
  const double pool_speedup = Median(rollout_ratios);
  const auto [min_rollout_ratio, max_rollout_ratio] =
      std::minmax_element(rollout_ratios.begin(), rollout_ratios.end());
  json.Add("rollout_steps_total", total_steps);
  json.Add("rollout_1env_serial_wall_s", serial_1env_s);
  json.Add("rollout_4env_serial_wall_s", serial_4env_s);
  json.Add("rollout_4env_pool_wall_s", pool_4env_s);
  json.Add("rollout_4env_pool_speedup_vs_serial", pool_speedup);
  json.Add("rollout_4env_pool_speedup_vs_serial_min", *min_rollout_ratio);
  json.Add("rollout_4env_pool_speedup_vs_serial_max", *max_rollout_ratio);
  std::printf("rollout collection, %d total steps (median of %d paired windows):\n",
              total_steps, kRolloutPairs);
  std::printf("  1 env, serial          %8.4f s\n", serial_1env_s);
  std::printf("  4 envs, serial         %8.4f s\n", serial_4env_s);
  std::printf("  4 envs, thread pool    %8.4f s  (%.2fx vs 4-env serial, range "
              "%.2f-%.2fx; %d-wide pool)\n",
              pool_4env_s, pool_speedup, *min_rollout_ratio, *max_rollout_ratio,
              ThreadPool::Shared().size());

  // --- Deployment guardrail overhead. ---
  // Per-MI decision throughput of the deployment controller (float32 replica
  // inference, the fast path), with and without the GuardedPolicy circuit
  // breaker wrapped around every decision. The guard adds a handful of finite/
  // bounds comparisons plus the warm-standby CUBIC's (per-MI no-op) forwarding,
  // so the overhead must stay a rounding error next to the NN forward.
  //
  // Measurement: interleaved PAIRED windows (unguarded then guarded,
  // back-to-back), gated on the minimum paired overhead. Measuring all
  // unguarded windows first and all guarded windows after lets a CPU-frequency
  // shift between the two blocks masquerade as >20% guard overhead on a shared
  // vCPU; adjacent windows see the same frequency regime, and the cleanest of
  // three pairs bounds the true cost from above. A failing first verdict is
  // remeasured once with doubled windows (repo-wide remeasure rule).
  //
  // The reported overhead is SIGNED: a guarded window that measures faster
  // than its unguarded partner (pure scheduling noise) yields a negative
  // value. The old clamp-to-0 silently converted that noise into a perfect
  // "0.00% overhead" report, which made the metric look stable across PRs
  // while actually discarding the information that the measurement was at the
  // noise floor. A small negative number is the honest reading.
  Rng guard_rng(23);
  auto guard_model = std::make_shared<PreferenceActorCritic>(config, &guard_rng);
  MonitorReport guard_report;
  guard_report.duration_s = 0.05;
  guard_report.packets_sent = 100;
  guard_report.packets_acked = 99;
  guard_report.packets_lost = 1;
  guard_report.send_rate_bps = 2e6;
  guard_report.throughput_bps = 1.9e6;
  guard_report.avg_rtt_s = 0.05;
  guard_report.min_rtt_s = 0.04;
  guard_report.loss_rate = 0.01;
  PolicySpec guard_spec;
  guard_spec.WithModel(guard_model).WithPrecision(Precision::kFloat32).WithName("MOCC");
  auto cc_plain =
      guard_spec.WithGuard(false).MakeController(BalancedObjective(), /*initial_rate_bps=*/2e6);
  auto cc_guarded =
      guard_spec.WithGuard(true).MakeController(BalancedObjective(), /*initial_rate_bps=*/2e6);
  double ungated_ops = 0.0;
  double guarded_ops = 0.0;
  double guarded_policy_overhead = 1.0;
  auto run_guard_pairs = [&](int pairs, double window_s) {
    for (int trial = 0; trial < pairs; ++trial) {
      const double u = MeasureOpsPerSec(
          [&] { cc_plain->OnMonitorInterval(guard_report); }, window_s);
      const double g = MeasureOpsPerSec(
          [&] { cc_guarded->OnMonitorInterval(guard_report); }, window_s);
      ungated_ops = std::max(ungated_ops, u);
      guarded_ops = std::max(guarded_ops, g);
      if (u > 0.0) {
        guarded_policy_overhead = std::min(guarded_policy_overhead, 1.0 - g / u);
      }
    }
  };
  run_guard_pairs(/*pairs=*/3, /*window_s=*/0.3);
  // Gate: the guardrail must cost < 2% of ungated decision throughput.
  constexpr double kGuardOverheadLimit = 0.02;
  if (guarded_policy_overhead >= kGuardOverheadLimit) {
    run_guard_pairs(/*pairs=*/2, /*window_s=*/0.6);
    std::fprintf(stderr, "[bench] guard gate remeasured: overhead %.2f%%\n",
                 guarded_policy_overhead * 100.0);
  }
  json.Add("controller_mi_f32_ops_per_sec", ungated_ops);
  json.Add("controller_mi_f32_guarded_ops_per_sec", guarded_ops);
  json.Add("guarded_policy_overhead", guarded_policy_overhead);
  std::printf("deployment controller per-MI decisions/sec (f32):\n");
  std::printf("  unguarded              %12.0f\n", ungated_ops);
  std::printf("  guarded                %12.0f  (overhead %.2f%%)\n", guarded_ops,
              guarded_policy_overhead * 100.0);

  if (!json.Write()) {
    std::fprintf(stderr, "failed to write %s\n", json.path().c_str());
    return 1;
  }
  if (guarded_policy_overhead >= kGuardOverheadLimit) {
#if defined(__SANITIZE_ADDRESS__) || MOCC_ASAN_FEATURE
    std::fprintf(stderr,
                 "WARN: guarded-policy overhead %.2f%% exceeds the %.0f%% limit; "
                 "sanitizer build, gate not enforced\n",
                 guarded_policy_overhead * 100.0, kGuardOverheadLimit * 100.0);
#else
    std::fprintf(stderr,
                 "FAIL: guarded-policy overhead %.2f%% exceeds the %.0f%% limit — "
                 "did per-decision validation grow beyond simple bounds checks?\n",
                 guarded_policy_overhead * 100.0, kGuardOverheadLimit * 100.0);
    return 1;
#endif
  }
  return 0;
}
