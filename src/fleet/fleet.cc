#include "src/fleet/fleet.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/reward.h"
#include "src/core/weight_vector.h"
#include "src/envs/multi_flow_cc_env.h"
#include "src/envs/scenario.h"
#include "src/rl/actor_critic.h"
#include "src/rl/inference_policy.h"

namespace mocc {
namespace {

// Order-sensitive 64-bit digest (the boost::hash_combine mixer). Doubles enter
// by bit pattern, so any FP divergence — not just a large one — changes it.
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(h, bits);
}

// One shard's private policy replica. Exactly one of the members is set; each
// replica is built on the caller thread (the shared model is read there only)
// and used by one shard thread (the InferencePolicy / ActorCritic scratch is
// single-thread state).
struct ShardPolicy {
  std::unique_ptr<ActorCritic> clone;            // Precision::kDouble
  std::unique_ptr<InferencePolicy> inference;    // kFloat32 / kInt8

  double ActionMean(const std::vector<double>& obs) {
    return clone != nullptr ? clone->ActionMean(obs) : inference->ActionMean(obs);
  }
};

ShardPolicy MakeShardPolicy(const PreferenceActorCritic& model, Precision precision) {
  ShardPolicy policy;
  policy.inference = model.MakeInferencePolicy(precision);
  if (policy.inference == nullptr) {
    policy.clone = model.Clone();
  }
  return policy;
}

// Runs one shard start to finish: its own env, its own replica, no shared
// mutable state. Writes only `result` (slot `shard` of the result vector).
void RunShard(const Scenario& scenario, const CcEnvConfig& env_config,
              const FleetSpec& spec, int shard, uint64_t seed, ShardPolicy* policy,
              ShardResult* result) {
  result->shard = shard;
  result->seed = seed;
  std::unique_ptr<MultiFlowCcEnv> env = scenario.MakeMultiFlowEnv(env_config, seed);
  // Homogeneous base objective, as in training/eval harnesses; scenarios with
  // their own ObjectivePlan override it at Reset.
  env->SetObjective(BalancedObjective());

  const int num_agents = env->NumAgents();
  std::vector<double> actions(static_cast<size_t>(num_agents), 0.0);
  uint64_t checksum = 0;
  for (int episode = 0; episode < spec.episodes_per_shard; ++episode) {
    std::vector<std::vector<double>> obs = env->Reset();
    for (int step = 0;; ++step) {
      for (int i = 0; i < num_agents; ++i) {
        actions[static_cast<size_t>(i)] =
            policy->ActionMean(obs[static_cast<size_t>(i)]);
      }
      VectorStepResult r = env->Step(actions);
      ++result->env_steps;
      const double capacity_full = env->current_bandwidth_bps();
      const double capacity =
          env->config().fair_share_reward
              ? capacity_full / static_cast<double>(env->ActiveFlowCount())
              : capacity_full;
      for (int i = 0; i < num_agents; ++i) {
        checksum = MixDouble(checksum, r.rewards[static_cast<size_t>(i)]);
        if (!env->AgentStarted(i)) {
          continue;
        }
        ++result->agent_steps;
        result->reward_sum += r.rewards[static_cast<size_t>(i)];
        const MonitorReport& mi = env->agent_last_report(i);
        const RewardComponents c =
            ComputeRewardComponents(mi, capacity, env->AgentBaseRttS(i));
        result->o_thr_sum += c.o_thr;
        result->o_lat_sum += c.o_lat;
        result->o_loss_sum += c.o_loss;
        result->throughput_sum_bps += mi.throughput_bps;
        result->avg_rtt_sum_s += mi.avg_rtt_s;
        result->loss_rate_sum += mi.loss_rate;
        checksum = MixDouble(checksum, env->agent_rate_bps(i));
      }
      const bool truncated =
          spec.steps_per_episode > 0 && step + 1 >= spec.steps_per_episode;
      if (r.done || truncated) {
        break;
      }
      obs = std::move(r.observations);
    }
    const double jain = env->LastStepJainIndex();
    result->jain_sum += jain;
    checksum = MixDouble(checksum, jain);
    ++result->episodes;
  }
  result->checksum = checksum;
}

}  // namespace

FleetResult RunFleet(const FleetSpec& spec) {
  FleetResult fleet;
  std::string error;
  std::optional<Scenario> scenario =
      ScenarioRegistry::Global().Resolve(spec.scenario, &error);
  if (!scenario.has_value()) {
    fleet.error = error;
    return fleet;
  }
  std::shared_ptr<PreferenceActorCritic> model = spec.policy.ResolveModel();
  if (model == nullptr) {
    fleet.error = "cannot resolve the fleet policy's model";
    return fleet;
  }

  const int num_shards = std::max(1, spec.num_shards);
  const CcEnvConfig env_config = model->config().MakeEnvConfig();

  // Everything ordering-sensitive happens here, on the caller thread, in shard
  // order: seed derivation (determinism rule 2) and replica construction (the
  // only reads of the shared model).
  Rng root(spec.seed);
  std::vector<uint64_t> seeds(static_cast<size_t>(num_shards));
  std::vector<ShardPolicy> policies(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    seeds[static_cast<size_t>(i)] = root.NextU64();
    policies[static_cast<size_t>(i)] =
        MakeShardPolicy(*model, spec.policy.precision());
  }

  fleet.shards.resize(static_cast<size_t>(num_shards));
  auto run_shard = [&](int i) {
    RunShard(*scenario, env_config, spec, i, seeds[static_cast<size_t>(i)],
             &policies[static_cast<size_t>(i)], &fleet.shards[static_cast<size_t>(i)]);
  };
  if (spec.threads == 1) {
    for (int i = 0; i < num_shards; ++i) {
      run_shard(i);  // the serial reference the parallel paths must match
    }
  } else if (spec.threads <= 0) {
    ThreadPool::Shared().ParallelFor(num_shards, run_shard);
  } else {
    ThreadPool pool(spec.threads);
    pool.ParallelFor(num_shards, run_shard);
  }

  // Shard-order aggregation: a deterministic fold, independent of which worker
  // ran which shard.
  double reward_sum = 0.0, o_thr = 0.0, o_lat = 0.0, o_loss = 0.0;
  double thr = 0.0, rtt = 0.0, loss = 0.0, jain = 0.0;
  for (const ShardResult& s : fleet.shards) {
    fleet.env_steps += s.env_steps;
    fleet.agent_steps += s.agent_steps;
    fleet.episodes += s.episodes;
    reward_sum += s.reward_sum;
    o_thr += s.o_thr_sum;
    o_lat += s.o_lat_sum;
    o_loss += s.o_loss_sum;
    thr += s.throughput_sum_bps;
    rtt += s.avg_rtt_sum_s;
    loss += s.loss_rate_sum;
    jain += s.jain_sum;
    fleet.checksum = Mix(fleet.checksum, s.checksum);
  }
  const double agent_steps = static_cast<double>(std::max<int64_t>(1, fleet.agent_steps));
  fleet.mean_reward = reward_sum / agent_steps;
  fleet.mean_o_thr = o_thr / agent_steps;
  fleet.mean_o_lat = o_lat / agent_steps;
  fleet.mean_o_loss = o_loss / agent_steps;
  fleet.mean_throughput_bps = thr / agent_steps;
  fleet.mean_avg_rtt_s = rtt / agent_steps;
  fleet.mean_loss_rate = loss / agent_steps;
  fleet.mean_jain = jain / static_cast<double>(std::max(1, fleet.episodes));
  fleet.ok = true;
  return fleet;
}

}  // namespace mocc
