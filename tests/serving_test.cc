// The serving-layer contract suite (`ctest -L serving`): batched float32
// inference must be BIT-IDENTICAL to the sequential single-row path at every
// level — the MatMulBiasInto row-pair tiling, MlpT::ForwardBatchRows, the
// InferencePolicy batch API — and a MoccServing instance must decide every
// connection exactly as a dedicated per-flow RlRateController fed the same
// reports would (float32, double and guarded variants), and a packet-simulator
// run served through ServingCc must match the same run on per-flow controllers
// (every precision, guarded or not, 3-wide and ECN models). Plus slab lifecycle
// determinism (attach/detach/reattach, stale-handle rejection), deadline-wheel
// same-tick batching, and the InferencePolicy single-thread contract.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/rl_cc.h"
#include "src/common/rng.h"
#include "src/core/mocc_api.h"
#include "src/core/mocc_config.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/netsim/aqm.h"
#include "src/netsim/packet_network.h"
#include "src/netsim/topology.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"
#include "src/rl/inference_policy.h"
#include "src/serving/serving_cc.h"

namespace mocc {
namespace {

// Deterministic per-(flow, round) report stream, independent of the decided
// rate so serving and per-flow controllers see byte-identical inputs.
MonitorReport MakeReport(int flow, int round) {
  MonitorReport r;
  r.duration_s = 0.05;
  r.packets_sent = 100 + flow % 7;
  r.packets_lost = (round + flow) % 3 == 0 ? 1 : 0;
  r.packets_acked = r.packets_sent - r.packets_lost;
  r.send_rate_bps = 2e6 + 1e4 * (flow % 13);
  r.throughput_bps = r.send_rate_bps * 0.95;
  r.avg_rtt_s = 0.045 + 1e-4 * ((round + flow) % 5);
  r.min_rtt_s = 0.040;
  r.loss_rate = static_cast<double>(r.packets_lost) / r.packets_sent;
  return r;
}

WeightVector FlowWeight(int flow) {
  static const WeightVector kMix[] = {{0.8, 0.1, 0.1},
                                      {1.0 / 3, 1.0 / 3, 1.0 / 3},
                                      {0.1, 0.8, 0.1},
                                      {0.1, 0.1, 0.8}};
  return kMix[flow % 4];
}

void FillRandom(MatrixT<float>* m, Rng* rng) {
  for (size_t i = 0; i < m->rows() * m->cols(); ++i) {
    m->data()[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
}

// --- 1. Kernel level: batched MatMulBiasInto == per-row results -------------

TEST(ServingKernelTest, MatMulBiasIntoBatchRowsBitIdenticalToSingleRows) {
  Rng rng(7);
  // Odd shapes exercise the 16/8/scalar tile tails; m covers the row-pair path
  // (even), the trailing-row path (odd) and the degenerate 1-row case.
  for (const size_t m : {size_t(1), size_t(2), size_t(3), size_t(6), size_t(9)}) {
    for (const size_t k : {size_t(5), size_t(17), size_t(33)}) {
      for (const size_t n : {size_t(1), size_t(7), size_t(24)}) {
        MatrixT<float> a(m, k), b(k, n), bias(1, n), batch(m, n);
        FillRandom(&a, &rng);
        FillRandom(&b, &rng);
        FillRandom(&bias, &rng);
        MatMulBiasInto(a, b, bias, &batch);
        for (size_t r = 0; r < m; ++r) {
          MatrixT<float> row(1, k), out(1, n);
          std::memcpy(row.data(), a.data() + r * k, k * sizeof(float));
          MatMulBiasInto(row, b, bias, &out);
          for (size_t c = 0; c < n; ++c) {
            ASSERT_EQ(batch(r, c), out(0, c))
                << "m=" << m << " k=" << k << " n=" << n << " row=" << r
                << " col=" << c;
          }
        }
      }
    }
  }
}

// --- 2. Network level: ForwardBatchRows == ForwardRow per row ---------------

TEST(ServingKernelTest, MlpForwardBatchRowsBitIdenticalToForwardRow) {
  Rng rng(11);
  Mlp net_d({9, 16, 8, 2}, Activation::kTanh, Activation::kIdentity, &rng);
  MlpT<float> net;
  net.CastFrom(net_d);
  constexpr size_t kRows = 5;
  std::vector<float> in(kRows * 9);
  for (float& v : in) {
    v = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  std::vector<float> batch_out(kRows * 2);
  net.ForwardBatchRows(in.data(), kRows, batch_out.data());
  for (size_t r = 0; r < kRows; ++r) {
    float row_out[2];
    net.ForwardRow(in.data() + r * 9, row_out);
    EXPECT_EQ(batch_out[r * 2 + 0], row_out[0]) << "row " << r;
    EXPECT_EQ(batch_out[r * 2 + 1], row_out[1]) << "row " << r;
  }
}

// --- 3. Policy level: ActionMeansF32 == sequential ActionMeanF32 ------------

TEST(ServingPolicyTest, ActionMeansF32BitIdenticalToSequentialSingleRows) {
  MoccConfig config;
  Rng rng(13);
  PreferenceActorCritic model(config, &rng);
  std::unique_ptr<InferencePolicy> batch_policy = model.MakeFloat32Policy();
  std::unique_ptr<InferencePolicy> seq_policy = model.MakeFloat32Policy();
  ASSERT_NE(batch_policy, nullptr);
  const size_t obs_dim = model.obs_dim();

  // 8 rows spanning 3 distinct weight prefixes, grouped like the engine's
  // prefix sort — the batch path's rolling PN cache must then follow exactly
  // the state a fresh replica evolves through sequentially.
  constexpr size_t kRows = 8;
  std::vector<float> obs(kRows * obs_dim);
  for (size_t r = 0; r < kRows; ++r) {
    const WeightVector w = FlowWeight(static_cast<int>(r) / 3);
    float* row = obs.data() + r * obs_dim;
    row[0] = static_cast<float>(w.thr);
    row[1] = static_cast<float>(w.lat);
    row[2] = static_cast<float>(w.loss);
    for (size_t k = 3; k < obs_dim; ++k) {
      row[k] = static_cast<float>(rng.Uniform(0.0, 2.0));
    }
  }
  std::vector<float> batch_means(kRows);
  batch_policy->ActionMeansF32(obs.data(), kRows, batch_means.data());
  for (size_t r = 0; r < kRows; ++r) {
    const float seq = seq_policy->ActionMeanF32(obs.data() + r * obs_dim);
    EXPECT_EQ(batch_means[r], seq) << "row " << r;
  }
}

TEST(ServingPolicyTest, PnRecomputesOncePerDistinctPrefixInSortedBatch) {
  MoccConfig config;
  Rng rng(13);
  PreferenceActorCritic model(config, &rng);
  std::unique_ptr<InferencePolicy> policy = model.MakeFloat32Policy();
  auto* pref = dynamic_cast<PreferenceFloat32Policy*>(policy.get());
  ASSERT_NE(pref, nullptr);
  const size_t obs_dim = model.obs_dim();

  constexpr size_t kRows = 9;  // 3 groups of 3, prefix-sorted
  std::vector<float> obs(kRows * obs_dim);
  for (size_t r = 0; r < kRows; ++r) {
    const WeightVector w = FlowWeight(static_cast<int>(r) / 3);
    float* row = obs.data() + r * obs_dim;
    row[0] = static_cast<float>(w.thr);
    row[1] = static_cast<float>(w.lat);
    row[2] = static_cast<float>(w.loss);
    for (size_t k = 3; k < obs_dim; ++k) {
      row[k] = 1.0f;
    }
  }
  std::vector<float> means(kRows);
  policy->ActionMeansF32(obs.data(), kRows, means.data());
  EXPECT_EQ(pref->pn_recompute_count(), 3);
  // Re-running the same batch rolls the cache through all three prefixes again
  // (the cache ends the batch holding the LAST group's features).
  policy->ActionMeansF32(obs.data(), kRows, means.data());
  EXPECT_EQ(pref->pn_recompute_count(), 6);
}

// --- 4. Service level: serving == dedicated per-flow controllers ------------

void ExpectServingMatchesControllers(Precision precision, bool guard) {
  MoccConfig config;
  Rng rng(17);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(precision).WithGuard(guard);

  constexpr int kFlows = 12;
  constexpr int kRounds = 30;
  constexpr double kInitialRate = 2e6;
  std::vector<std::unique_ptr<RlRateController>> ccs;
  for (int f = 0; f < kFlows; ++f) {
    ccs.push_back(spec.MakeController(FlowWeight(f), kInitialRate));
  }
  std::unique_ptr<MoccServing> service = CreateService(spec);
  ASSERT_NE(service, nullptr);
  MoccServing::ConnectionOptions copts;
  copts.initial_rate_bps = kInitialRate;
  std::vector<ServingConnId> conns;
  for (int f = 0; f < kFlows; ++f) {
    conns.push_back(service->AttachConnection(FlowWeight(f), copts));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int f = 0; f < kFlows; ++f) {
      const MonitorReport report = MakeReport(f, round);
      ccs[f]->OnMonitorInterval(report);
      ASSERT_TRUE(service->SubmitReport(conns[f], report));
    }
    service->RatePoll();
    for (int f = 0; f < kFlows; ++f) {
      ASSERT_EQ(service->RateBps(conns[f]), ccs[f]->PacingRateBps())
          << "flow " << f << " round " << round;
    }
  }
  for (int f = 0; f < kFlows; ++f) {
    EXPECT_EQ(service->DecisionCount(conns[f]), ccs[f]->inference_count())
        << "flow " << f;
    if (guard) {
      const GuardedPolicy* sg = service->Guard(conns[f]);
      ASSERT_NE(sg, nullptr);
      ASSERT_NE(ccs[f]->guard(), nullptr);
      EXPECT_EQ(sg->trip_count(), ccs[f]->guard()->trip_count()) << "flow " << f;
    } else {
      EXPECT_EQ(service->Guard(conns[f]), nullptr);
    }
  }
}

TEST(ServingEngineTest, Float32BatchMatchesPerFlowControllersBitExactly) {
  ExpectServingMatchesControllers(Precision::kFloat32, /*guard=*/false);
}

TEST(ServingEngineTest, DoublePathMatchesPerFlowControllersBitExactly) {
  ExpectServingMatchesControllers(Precision::kDouble, /*guard=*/false);
}

TEST(ServingEngineTest, GuardedFloat32MatchesPerFlowControllersBitExactly) {
  ExpectServingMatchesControllers(Precision::kFloat32, /*guard=*/true);
}

// --- 4b. Packet simulator: served flows == per-flow controllers -------------
//
// One multi-flow PacketNetwork run twice: every flow a ServingCc over one shared
// MoccServing, then every flow a dedicated PolicySpec::MakeController. The
// simulator feeds back what each flow decided, so any divergence compounds into
// different totals and monitor-interval sequences. One mid-run objective switch
// (SwitchObjective on the service, SetObservationPrefix on the controllers)
// covers the online preference change.

struct SimFlowTrace {
  int64_t sent = 0;
  int64_t acked = 0;
  int64_t lost = 0;
  int64_t marked = 0;
  int64_t guard_trips = -1;  // -1 = unguarded
  std::vector<MiSample> mis;
};

std::vector<SimFlowTrace> RunPacketSim(const PolicySpec& spec, bool ecn_link, bool served) {
  constexpr int kFlows = 4;
  constexpr double kInitialRate = 6e6;  // 2x overdrive: queues build, RED marks
  constexpr double kSwitchS = 6.0;
  constexpr double kDurationS = 12.0;
  LinkParams link;
  link.bandwidth_bps = 12e6;
  link.one_way_delay_s = 0.020;
  link.queue_capacity_pkts = 200;
  NetworkTopology topology = BuildTopology(TopologySpec{}, link);
  if (ecn_link) {
    AqmSpec& aqm = topology.links[0].aqm;
    aqm.kind = AqmKind::kRed;
    aqm.ecn = true;
    aqm.red_min_pkts = 5.0;
    aqm.red_max_pkts = 40.0;
    aqm.red_weight = 0.01;
  }
  std::unique_ptr<MoccServing> service = served ? CreateService(spec) : nullptr;
  PacketNetwork net(std::move(topology), /*seed=*/7);
  std::vector<ServingConnId> conns;
  std::vector<RlRateController*> ccs;
  std::vector<int> flows;
  for (int f = 0; f < kFlows; ++f) {
    FlowOptions options;
    options.start_time_s = 0.25 * f;
    options.ecn_capable = ecn_link;
    std::unique_ptr<CongestionControl> cc;
    if (served) {
      MoccServing::ConnectionOptions copts;
      copts.initial_rate_bps = kInitialRate;
      conns.push_back(service->AttachConnection(FlowWeight(f), copts));
      cc = std::make_unique<ServingCc>(service.get(), conns.back());
    } else {
      auto controller = spec.MakeController(FlowWeight(f), kInitialRate);
      ccs.push_back(controller.get());
      cc = std::move(controller);
    }
    flows.push_back(net.AddFlow(std::move(cc), options));
  }
  net.Run(kSwitchS);
  const WeightVector to = LatencyObjective().Sanitized();
  for (int f = 0; f < kFlows; f += 2) {
    if (served) {
      service->SwitchObjective(conns[f], to);
    } else {
      ccs[f]->SetObservationPrefix({to.thr, to.lat, to.loss});
    }
  }
  net.Run(kDurationS);

  std::vector<SimFlowTrace> traces;
  for (int f = 0; f < kFlows; ++f) {
    const FlowRecord& rec = net.record(flows[f]);
    SimFlowTrace trace;
    trace.sent = rec.total_sent;
    trace.acked = rec.total_acked;
    trace.lost = rec.total_lost;
    trace.marked = rec.total_marked;
    const GuardedPolicy* guard = served ? service->Guard(conns[f]) : ccs[f]->guard();
    if (guard != nullptr) {
      trace.guard_trips = guard->trip_count();
    }
    trace.mis = rec.mi_samples();
    traces.push_back(std::move(trace));
  }
  return traces;
}

void ExpectServedSimMatchesControllers(const MoccConfig& config, bool ecn_link) {
  Rng rng(29);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  for (const Precision precision :
       {Precision::kDouble, Precision::kFloat32, Precision::kInt8}) {
    for (const bool guard : {false, true}) {
      SCOPED_TRACE(std::string(PrecisionName(precision)) +
                   (guard ? " guarded" : " unguarded"));
      PolicySpec spec;
      spec.WithModel(model).WithPrecision(precision).WithGuard(guard);
      const std::vector<SimFlowTrace> served = RunPacketSim(spec, ecn_link, true);
      const std::vector<SimFlowTrace> dedicated = RunPacketSim(spec, ecn_link, false);
      ASSERT_EQ(served.size(), dedicated.size());
      int64_t marked = 0;
      for (size_t f = 0; f < served.size(); ++f) {
        SCOPED_TRACE("flow " + std::to_string(f));
        const SimFlowTrace& a = served[f];
        const SimFlowTrace& b = dedicated[f];
        EXPECT_GT(a.sent, 0);
        EXPECT_EQ(a.sent, b.sent);
        EXPECT_EQ(a.acked, b.acked);
        EXPECT_EQ(a.lost, b.lost);
        EXPECT_EQ(a.marked, b.marked);
        EXPECT_EQ(a.guard_trips, b.guard_trips);
        EXPECT_EQ(a.guard_trips >= 0, guard);
        ASSERT_EQ(a.mis.size(), b.mis.size());
        for (size_t i = 0; i < a.mis.size(); ++i) {
          ASSERT_EQ(a.mis[i].time_s, b.mis[i].time_s) << "MI " << i;
          ASSERT_EQ(a.mis[i].send_rate_bps, b.mis[i].send_rate_bps) << "MI " << i;
          ASSERT_EQ(a.mis[i].throughput_bps, b.mis[i].throughput_bps) << "MI " << i;
          ASSERT_EQ(a.mis[i].avg_rtt_s, b.mis[i].avg_rtt_s) << "MI " << i;
          ASSERT_EQ(a.mis[i].ecn_rate, b.mis[i].ecn_rate) << "MI " << i;
        }
        marked += a.marked;
      }
      // The ECN variant must actually exercise the mark channel.
      EXPECT_EQ(marked > 0, ecn_link);
    }
  }
}

TEST(ServingEngineTest, PacketSimServedFlowsMatchPerFlowControllers) {
  ExpectServedSimMatchesControllers(MoccConfig{}, /*ecn_link=*/false);
}

TEST(ServingEngineTest, PacketSimServedEcnFlowsMatchPerFlowControllers) {
  MoccConfig config;
  config.ecn_signal = true;
  ExpectServedSimMatchesControllers(config, /*ecn_link=*/true);
}

// --- 5. Slab lifecycle: attach/detach/reattach determinism ------------------

TEST(ServingEngineTest, ReattachAfterChurnReproducesIdenticalRateSequence) {
  MoccConfig config;
  Rng rng(19);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32);
  std::unique_ptr<MoccServing> service = CreateService(spec);
  ASSERT_NE(service, nullptr);

  constexpr int kRounds = 20;
  auto run_flow = [&](ServingConnId conn) {
    std::vector<double> rates;
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(service->SubmitReport(conn, MakeReport(0, round)));
      service->RatePoll();
      rates.push_back(service->RateBps(conn));
    }
    return rates;
  };

  const ServingConnId a = service->AttachConnection(FlowWeight(0));
  const std::vector<double> baseline = run_flow(a);

  // Churn: detach a sibling so its slot recycles, land a new connection in the
  // recycled slot, then re-run the same stream on a FRESH attachment of the
  // original objective — per-connection state must be fully reinitialized.
  const ServingConnId b = service->AttachConnection(FlowWeight(1));
  EXPECT_TRUE(service->DetachConnection(b));
  const ServingConnId c = service->AttachConnection(FlowWeight(2));
  EXPECT_EQ(c.slot, b.slot);  // slot recycled...
  EXPECT_NE(c.generation, b.generation);  // ...under a new generation
  EXPECT_TRUE(service->DetachConnection(a));
  const ServingConnId a2 = service->AttachConnection(FlowWeight(0));
  const std::vector<double> replay = run_flow(a2);
  ASSERT_EQ(replay.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(replay[i], baseline[i]) << "round " << i;
  }
}

TEST(ServingEngineTest, StaleHandlesAreRejectedEverywhere) {
  MoccConfig config;
  Rng rng(19);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32).WithGuard(true);
  std::unique_ptr<MoccServing> service = CreateService(spec);
  ASSERT_NE(service, nullptr);

  const ServingConnId id = service->AttachConnection(FlowWeight(0));
  EXPECT_TRUE(service->SubmitReport(id, MakeReport(0, 0)));
  service->RatePoll();
  EXPECT_TRUE(service->DetachConnection(id));
  EXPECT_EQ(service->attached(), 0u);

  // Every entry point must reject the stale generation — including after the
  // slot is recycled by a new attachment.
  const ServingConnId fresh = service->AttachConnection(FlowWeight(1));
  EXPECT_EQ(fresh.slot, id.slot);
  EXPECT_FALSE(service->SubmitReport(id, MakeReport(0, 1)));
  EXPECT_FALSE(service->SwitchObjective(id, FlowWeight(2)));
  EXPECT_FALSE(service->DetachConnection(id));
  EXPECT_EQ(service->RateBps(id), 0.0);
  EXPECT_EQ(service->DecisionCount(id), 0);
  EXPECT_EQ(service->Guard(id), nullptr);
  EXPECT_EQ(service->attached(), 1u);
  // An un-attached default handle is stale too.
  EXPECT_FALSE(service->SubmitReport(ServingConnId{}, MakeReport(0, 0)));
}

// --- 6. Deadline wheel: same-tick expiries decide as one batch --------------

TEST(ServingWheelTest, SameTickExpiriesBatchAndCadencesHold) {
  MoccConfig config;
  Rng rng(23);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32);
  MoccServing::Options sopts;
  sopts.tick_s = 0.010;
  std::unique_ptr<MoccServing> service = CreateService(spec, sopts);
  ASSERT_NE(service, nullptr);

  // 4 connections on a 20 ms MI and 2 on a 30 ms MI: expiries at 20/40/60 ms
  // and 30/60 ms — at 60 ms all six land in the same tick and must decide as
  // ONE batch of 6.
  std::vector<ServingConnId> fast, slow;
  for (int f = 0; f < 6; ++f) {
    MoccServing::ConnectionOptions copts;
    copts.mi_duration_s = f < 4 ? 0.020 : 0.030;
    copts.start_time_s = 0.0;
    (f < 4 ? fast : slow).push_back(service->AttachConnection(FlowWeight(f), copts));
  }
  AckInfo ack;
  ack.rtt_s = 0.045;
  for (int tick = 1; tick <= 6; ++tick) {
    for (const ServingConnId& id : fast) {
      service->OnPacketSent(id, 2);
      service->OnAck(id, ack);
    }
    for (const ServingConnId& id : slow) {
      service->OnPacketSent(id, 2);
      service->OnAck(id, ack);
    }
    service->RatePoll(tick * 0.010);
  }
  for (const ServingConnId& id : fast) {
    EXPECT_EQ(service->DecisionCount(id), 3);  // 20, 40, 60 ms
  }
  for (const ServingConnId& id : slow) {
    EXPECT_EQ(service->DecisionCount(id), 2);  // 30, 60 ms
  }
  const MoccServing::Stats& stats = service->stats();
  EXPECT_EQ(stats.decisions, 4 * 3 + 2 * 2);
  EXPECT_EQ(stats.max_batch, 6);  // the coincident 60 ms tick
  // Self-timed connections own their clock: external reports are rejected.
  EXPECT_FALSE(service->SubmitReport(fast[0], MakeReport(0, 0)));
}

// --- 7. InferencePolicy thread contract -------------------------------------

TEST(ServingPolicyTest, SequentialUseAcrossThreadsIsAllowed) {
  MoccConfig config;
  Rng rng(29);
  PreferenceActorCritic model(config, &rng);
  std::unique_ptr<InferencePolicy> policy = model.MakeFloat32Policy();
  const std::vector<double> obs(model.obs_dim(), 0.5);
  const double main_mean = policy->ActionMean(obs);
  double thread_mean = 0.0;
  // Sequential cross-thread use (externally ordered) is inside the contract:
  // the debug reentrancy assert must not fire.
  std::thread worker([&] { thread_mean = policy->ActionMean(obs); });
  worker.join();
  EXPECT_EQ(thread_mean, main_mean);
  EXPECT_EQ(policy->ActionMean(obs), main_mean);
}

}  // namespace
}  // namespace mocc
