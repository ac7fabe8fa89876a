// `sim` (closed loop): RunFleet with the float32 golden policy at a fixed
// thread count over three packet-level scenarios. many-flow (8 MOCC agents,
// droptail) is heavy on policy forwards, video-compete (bursty ABR competitor)
// on packet events, red-ecn exercises AQM marking.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/core/weight_vector.h"
#include "src/envs/multi_flow_cc_env.h"
#include "src/envs/scenario.h"
#include "src/fleet/fleet.h"
#include "src/rl/inference_policy.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char* const kScenarios[] = {"many-flow", "video-compete", "red-ecn"};
constexpr int kShardsPerThread = 8;
constexpr int kStepsPerEpisode = 400;  // the scenarios' own episode length
constexpr uint64_t kSeedSets = 11;

// Two workers: parallel enough to exercise the pool and its efficiency, few
// enough that a shared host's other tenants rarely take one away.
int FleetThreads(const Args& args) { return std::max(1, std::min(2, args.nproc)); }

// The fleets of round set `set`: one per scenario, each with its own root seed.
std::vector<mocc::FleetSpec> FleetSpecs(const Args& args, const mocc::PolicySpec& policy,
                                        uint64_t set) {
  std::vector<mocc::FleetSpec> specs;
  uint64_t index = 0;
  for (const char* scenario : kScenarios) {
    mocc::FleetSpec spec;
    spec.scenario = scenario;
    spec.threads = FleetThreads(args);
    spec.num_shards = kShardsPerThread * spec.threads;
    spec.episodes_per_shard = 1;
    spec.steps_per_episode = kStepsPerEpisode;
    spec.seed = Hash3(args.seed, set, index++);
    spec.policy = policy;
    specs.push_back(spec);
  }
  return specs;
}

// A run goes through whole rotations of kSeedSets sets of fleets, so it
// averages the cost of kSeedSets * num_shards sampled links per scenario and
// its speed does not hinge on a few link draws of one seed.
std::vector<std::vector<mocc::FleetSpec>> RoundSets(const Args& args,
                                                    const mocc::PolicySpec& policy) {
  std::vector<std::vector<mocc::FleetSpec>> sets;
  for (uint64_t set = 0; set < kSeedSets; ++set) {
    sets.push_back(FleetSpecs(args, policy, set));
  }
  return sets;
}

// One round: every scenario's fleet once. Returns agent steps; records each
// fleet's checksum.
int64_t RunRound(const std::vector<mocc::FleetSpec>& specs, std::vector<uint64_t>* checksums,
                 Report* report) {
  int64_t agent_steps = 0;
  checksums->clear();
  for (const mocc::FleetSpec& spec : specs) {
    const mocc::FleetResult result = mocc::RunFleet(spec);
    report->ledger.Attempt("fleet_run");
    if (!result.ok) {
      report->Mismatch("fleet_run");
    }
    agent_steps += result.agent_steps;
    checksums->push_back(result.checksum);
  }
  return agent_steps;
}

// Compares every recorded round against the threads=1 serial reference.
void CheckAgainstSerial(const std::vector<mocc::FleetSpec>& specs,
                        const std::vector<std::vector<uint64_t>>& rounds, Report* report) {
  for (size_t i = 0; i < specs.size(); ++i) {
    mocc::FleetSpec serial = specs[i];
    serial.threads = 1;
    const uint64_t reference = mocc::RunFleet(serial).checksum;
    for (const auto& round : rounds) {
      report->ledger.Attempt("fleet_checksum");
      if (round[i] != reference) {
        report->Mismatch("fleet_checksum");
      }
    }
  }
}

// The MOCC agents' own packets, from their monitor reports (competitor traffic
// is not visible through the env API).
struct EpisodeCounts {
  uint64_t checksum = 0;  // RunShard's, for one episode
  int64_t agent_steps = 0;
  int64_t sent = 0;
  int64_t acked = 0;
  int64_t lost = 0;
  int64_t marked = 0;
  EpisodeCounts& operator+=(const EpisodeCounts& o) {
    agent_steps += o.agent_steps;
    sent += o.sent;
    acked += o.acked;
    lost += o.lost;
    marked += o.marked;
    return *this;
  }
};

// RunShard's checksum fold (src/fleet/fleet.cc), which differs from MixU64.
uint64_t FleetMix(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  h ^= bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// One shard's episode stepped by the benchmark itself (the RunShard loop), with
// spans around the policy forwards and the env step. It folds the same checksum
// as RunShard, so a drift between the two loops is an output-check failure.
EpisodeCounts MirrorEpisode(const mocc::Scenario& scenario, mocc::PreferenceActorCritic* model,
                            mocc::InferencePolicy* policy, uint64_t seed,
                            const char* step_name) {
  EpisodeCounts counts;
  std::unique_ptr<mocc::MultiFlowCcEnv> env =
      scenario.MakeMultiFlowEnv(model->config().MakeEnvConfig(), seed);
  env->SetObjective(mocc::BalancedObjective());
  const int agents = env->NumAgents();
  std::vector<double> actions(static_cast<size_t>(agents), 0.0);
  std::vector<std::vector<double>> obs = env->Reset();
  for (int step = 0; step < kStepsPerEpisode; ++step) {
    {
      ScopedSpan span("nn.f32.actor_row", agents);
      for (int i = 0; i < agents; ++i) {
        actions[static_cast<size_t>(i)] = policy->ActionMean(obs[static_cast<size_t>(i)]);
      }
    }
    mocc::VectorStepResult r;
    {
      ScopedSpan span(step_name);
      r = env->Step(actions);
    }
    for (int i = 0; i < agents; ++i) {
      counts.checksum = FleetMix(counts.checksum, r.rewards[static_cast<size_t>(i)]);
      if (!env->AgentStarted(i)) {
        continue;
      }
      counts.checksum = FleetMix(counts.checksum, env->agent_rate_bps(i));
      const mocc::MonitorReport& mi = env->agent_last_report(i);
      ++counts.agent_steps;
      counts.sent += mi.packets_sent;
      counts.acked += mi.packets_acked;
      counts.lost += mi.packets_lost;
      counts.marked += mi.packets_marked;
    }
    if (r.done) {
      break;
    }
    obs = std::move(r.observations);
  }
  counts.checksum = FleetMix(counts.checksum, env->LastStepJainIndex());
  return counts;
}

}  // namespace

void RunSim(const Args& args, Report* report) {
  std::vector<std::vector<mocc::FleetSpec>> sets;
  AddSetup(report, [&] { sets = RoundSets(args, GoldenSpec(args, mocc::Precision::kFloat32)); });
  std::vector<uint64_t> checksums;
  for (const auto& specs : sets) {
    RunRound(specs, &checksums, report);  // warm-up, discarded
  }

  // rounds[s] holds the checksums of every round run on set s. A latency
  // sample is one whole rotation, which does the same work every time: a
  // round's tail would be that of whichever seed set has the costliest links.
  // On a 4-vCPU Xeon VM a rotation takes 0.5 to 1 s as the host's speed
  // drifts, so a 45 s run times 45 to 90 of them and its tail is p75 either
  // way (p90 would need 100 samples, p75 needs 40).
  std::vector<std::vector<std::vector<uint64_t>>> rounds(sets.size());
  std::vector<double> rotation_us, rates;
  const int64_t t0 = NowNs();
  do {
    int64_t agent_steps = 0;
    const int64_t rotation0 = NowNs();
    for (size_t set = 0; set < sets.size(); ++set) {
      agent_steps += RunRound(sets[set], &checksums, report);
      rounds[set].push_back(checksums);
    }
    const double rotation_s = SecondsSince(rotation0);
    rotation_us.push_back(rotation_s * 1e6);
    rates.push_back(static_cast<double>(agent_steps) / rotation_s);
  } while (SecondsSince(t0) < args.seconds);
  for (size_t set = 0; set < sets.size(); ++set) {
    CheckAgainstSerial(sets[set], rounds[set], report);
  }

  AddThroughput(report,
                "sim.agent_steps_per_s (" + std::to_string(FleetThreads(args)) +
                    " threads, per rotation of the seed sets)",
                rates);
  AddLatency(report, "sim.rotation_us", rotation_us);
}

void TraceSim(const Args& args, double budget_s, Report* report, TraceTotals* totals) {
  const mocc::PolicySpec policy = GoldenSpec(args, mocc::Precision::kFloat32);
  const std::vector<mocc::FleetSpec> specs = FleetSpecs(args, policy, 0);
  std::vector<uint64_t> checksums;
  RunRound(specs, &checksums, report);  // warm-up

  // Untraced: pooled rounds against the serial reference of the same fleets.
  double parallel_s = 0.0, serial_s = 0.0;
  int64_t serial_agent_steps = 0;
  std::vector<std::vector<uint64_t>> rounds;
  const int64_t t0 = NowNs();
  do {
    int64_t r0 = NowNs();
    RunRound(specs, &checksums, report);
    parallel_s += SecondsSince(r0);
    rounds.push_back(checksums);
    r0 = NowNs();
    for (const mocc::FleetSpec& spec : specs) {
      mocc::FleetSpec serial = spec;
      serial.threads = 1;
      serial_agent_steps += mocc::RunFleet(serial).agent_steps;
    }
    serial_s += SecondsSince(r0);
  } while (SecondsSince(t0) < budget_s * 0.4);
  CheckAgainstSerial(specs, rounds, report);
  const double n_rounds = static_cast<double>(rounds.size());
  const int threads = FleetThreads(args);
  report->Add("fleet.serial_s", serial_s / n_rounds, "s");
  report->Add("fleet.parallel_efficiency", serial_s / (parallel_s * threads), "frac");
  const double serial_ns_per_agent_step = serial_s * 1e9 / serial_agent_steps;

  // Mirrored shard episodes, untraced then traced.
  std::shared_ptr<mocc::PreferenceActorCritic> model = policy.ResolveModel();
  std::unique_ptr<mocc::InferencePolicy> f32 = model->MakeFloat32Policy();
  std::vector<mocc::Scenario> scenarios;
  std::vector<const char*> step_names;
  for (const char* name : kScenarios) {
    scenarios.push_back(*mocc::ScenarioRegistry::Global().Find(name));
    step_names.push_back(Intern(std::string("envs.multi_flow.step.") + name));
  }
  // RunFleet's per-shard checksums, which every mirrored episode must match.
  std::vector<std::vector<uint64_t>> shard_checksums;
  for (mocc::FleetSpec serial : specs) {
    serial.threads = 1;
    shard_checksums.emplace_back();
    for (const mocc::ShardResult& shard : mocc::RunFleet(serial).shards) {
      shard_checksums.back().push_back(shard.checksum);
    }
  }
  // Every shard of every fleet, serially, with the shard seeds RunFleet draws.
  auto mirror_window = [&](double window_s, std::vector<EpisodeCounts>* per_scenario) {
    int64_t agent_steps = 0;
    const int64_t w0 = NowNs();
    do {
      for (size_t i = 0; i < specs.size(); ++i) {
        mocc::Rng root(specs[i].seed);
        for (int shard = 0; shard < specs[i].num_shards; ++shard) {
          const EpisodeCounts c = MirrorEpisode(scenarios[i], model.get(), f32.get(),
                                                root.NextU64(), step_names[i]);
          report->ledger.Attempt("mirror_check");
          if (c.checksum != shard_checksums[i][static_cast<size_t>(shard)]) {
            report->Mismatch("mirror_check");
          }
          agent_steps += c.agent_steps;
          if (per_scenario != nullptr) {
            (*per_scenario)[i] += c;
          }
        }
      }
    } while (SecondsSince(w0) < window_s);
    return static_cast<double>(NowNs() - w0) / static_cast<double>(agent_steps);
  };
  const double untraced_ns = mirror_window(budget_s * 0.25, nullptr);
  std::vector<EpisodeCounts> counts(scenarios.size());
  Tracer& tracer = Tracer::Get();
  tracer.Enable(2);
  const double traced_ns = mirror_window(budget_s * 0.25, &counts);
  tracer.Disable();
  totals->overhead.push_back(traced_ns / untraced_ns - 1.0);

  const std::vector<Span> spans = DrainSpans(args, "sim", report);
  const auto stats = Aggregate(spans);
  const SpanStats& rows = stats.at("nn.f32.actor_row");
  double layer_ns = rows.total_ns;
  int64_t agent_steps = 0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name = kScenarios[i];
    const SpanStats& step = stats.at(step_names[i]);
    const EpisodeCounts& c = counts[i];
    layer_ns += step.total_ns;
    agent_steps += c.agent_steps;
    report->Add("envs.multi_flow.step_ns." + name, step.total_ns / step.count, "ns");
    report->Add("netsim.packets_per_agent_step." + name,
                static_cast<double>(c.sent) / std::max<int64_t>(1, c.agent_steps), "count");
    report->Add("netsim.ns_per_packet." + name,
                step.total_ns / std::max<int64_t>(1, c.sent), "ns");
    report->Add("netsim.loss_frac." + name,
                static_cast<double>(c.lost) / std::max<int64_t>(1, c.acked + c.lost), "frac");
    if (name == "red-ecn") {
      report->Add("netsim.ecn_mark_frac." + name,
                  static_cast<double>(c.marked) / std::max<int64_t>(1, c.acked), "frac");
    }
  }
  report->Add("nn.f32.actor_row_ns", rows.NsPerItem(), "ns");
  report->Add("sim.unattributed_share",
              1.0 - layer_ns / static_cast<double>(agent_steps) / serial_ns_per_agent_step,
              "frac");
}

}  // namespace perfbench
