// Semantics tests for the performance fast paths: the allocation-free batched
// ForwardInto/BackwardInto pair and the fused single-row ForwardRow must match the
// batched reference bit-for-bit (same floating-point operation order), and parallel
// rollout collection must be deterministic — bit-identical to serial collection and
// reproducible across runs under a fixed seed. Splitting a minibatch's two heads
// across the shared thread pool must not move a bit either.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/model_sharing.h"
#include "src/core/offline_trainer.h"
#include "src/core/preference_model.h"
#include "src/envs/env.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"
#include "src/rl/actor_critic.h"
#include "src/rl/ppo.h"

namespace mocc {
namespace {

// Reward = 1 - (a - target)^2 / 10 with a constant observation; optimum a = target.
class QuadEnv : public Env {
 public:
  explicit QuadEnv(double target, std::vector<double> obs = {0.5, -0.5})
      : target_(target), obs_(std::move(obs)) {}
  std::vector<double> Reset() override {
    steps_ = 0;
    return obs_;
  }
  StepResult Step(double a) override {
    StepResult r;
    r.reward = 1.0 - (a - target_) * (a - target_) / 10.0;
    r.done = ++steps_ >= 64;
    r.observation = obs_;
    return r;
  }
  size_t ObservationDim() const override { return obs_.size(); }

 private:
  double target_;
  std::vector<double> obs_;
  int steps_ = 0;
};

TEST(NnFastPathTest, ForwardIntoMatchesForwardBitForBit) {
  Rng rng(11);
  Mlp net({7, 16, 8, 3}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x(5, 7);
  x.FillNormal(&rng, 1.0);
  const Matrix reference = net.Forward(x);
  Matrix into;
  net.ForwardInto(x, &into);
  ASSERT_EQ(into.rows(), reference.rows());
  ASSERT_EQ(into.cols(), reference.cols());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(into.data()[i], reference.data()[i]) << "element " << i;
  }
  // Workspace reuse across a batch-size change must not corrupt results.
  Matrix x2(3, 7);
  x2.FillNormal(&rng, 1.0);
  const Matrix ref2 = net.Forward(x2);
  Matrix into2;
  net.ForwardInto(x2, &into2);
  for (size_t i = 0; i < ref2.size(); ++i) {
    EXPECT_EQ(into2.data()[i], ref2.data()[i]);
  }
}

TEST(NnFastPathTest, ForwardRowMatchesBatchedForwardBitForBit) {
  Rng rng(13);
  // Width > 64 exercises the blocked matmul across more than one k-block.
  Mlp net({70, 64, 32, 2}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x(4, 70);
  x.FillNormal(&rng, 1.0);
  const Matrix reference = net.Forward(x);
  std::vector<double> out;
  for (size_t r = 0; r < x.rows(); ++r) {
    net.ForwardRow(x.Row(r), &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], reference(r, 0)) << "row " << r;
    EXPECT_EQ(out[1], reference(r, 1)) << "row " << r;
  }
}

TEST(NnFastPathTest, BackwardIntoMatchesLegacyBackwardBitForBit) {
  Rng rng(17);
  Mlp a({5, 12, 4}, Activation::kTanh, Activation::kIdentity, &rng);
  Mlp b({5, 12, 4}, Activation::kTanh, Activation::kIdentity, &rng);
  b.CopyWeightsFrom(a);
  Matrix x(6, 5);
  x.FillNormal(&rng, 1.0);

  a.ZeroGrad();
  const Matrix ya = a.Forward(x);
  const Matrix dxa = a.Backward(ya);

  b.ZeroGrad();
  Matrix yb;
  b.ForwardInto(x, &yb);
  Matrix dxb;
  b.BackwardInto(yb, &dxb);

  auto pa = a.Params();
  auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t p = 0; p < pa.size(); ++p) {
    for (size_t i = 0; i < pa[p].grad->size(); ++i) {
      EXPECT_EQ(pa[p].grad->data()[i], pb[p].grad->data()[i]) << "param " << p;
    }
  }
  ASSERT_EQ(dxa.size(), dxb.size());
  for (size_t i = 0; i < dxa.size(); ++i) {
    EXPECT_EQ(dxa.data()[i], dxb.data()[i]);
  }
}

// a·b rounded to double on its own: the empty asm hides the product from the
// compiler, so `sum + RoundedProduct(..)` cannot be contracted into an fma
// whatever -march / -mtune / -ffp-contract this test is built with.
double RoundedProduct(double a, double b) {
  double p = a * b;
#if defined(__SSE2__)
  asm("" : "+x"(p));
#elif defined(__aarch64__)
  asm("" : "+w"(p));
#else
  asm("" : "+m"(p));
#endif
  return p;
}

// The two backward recipes are pinned against explicit per-element chains, so
// a compiler, flag or tier change that would silently move training bits
// fails here instead.
TEST(NnBackwardRecipeTest, TransposeAAccumulateIsAnFmaChainPerElement) {
  Rng rng(41);
  for (size_t rows : {1u, 7u, 256u}) {
    Matrix x(rows, 46);
    Matrix dy(rows, 64);
    Matrix dw(46, 64);
    x.FillNormal(&rng, 1.0);
    dy.FillNormal(&rng, 0.1);
    dw.FillNormal(&rng, 0.01);
    Matrix expected(46, 64);
    for (size_t i = 0; i < 46; ++i) {
      for (size_t j = 0; j < 64; ++j) {
        double acc = dw(i, j);
        for (size_t r = 0; r < rows; ++r) {
          acc = std::fma(x(r, i), dy(r, j), acc);
        }
        expected(i, j) = acc;
      }
    }
    MatMulTransposeAAccumulate(x, dy, &dw);
    for (size_t e = 0; e < dw.size(); ++e) {
      ASSERT_EQ(dw.data()[e], expected.data()[e]) << "rows " << rows << " element " << e;
    }
  }
}

TEST(NnBackwardRecipeTest, TransposeBIsAnUnfusedMulAddChainPerElement) {
  Rng rng(43);
  for (size_t rows : {1u, 7u, 256u}) {
    Matrix dy(rows, 64);
    Matrix w(46, 64);
    dy.FillNormal(&rng, 0.1);
    w.FillNormal(&rng, 1.0);
    Matrix dx;
    MatMulTransposeBInto(dy, w, &dx);
    ASSERT_EQ(dx.rows(), rows);
    ASSERT_EQ(dx.cols(), 46u);
    Matrix leading;
    MatMulTransposeBInto(dy, w, 16, &leading);
    ASSERT_EQ(leading.rows(), rows);
    ASSERT_EQ(leading.cols(), 16u);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < 46; ++c) {
        double sum = 0.0;
        for (size_t k = 0; k < 64; ++k) {
          sum = sum + RoundedProduct(dy(r, k), w(c, k));
        }
        ASSERT_EQ(dx(r, c), sum) << "rows " << rows << " at " << r << "," << c;
        if (c < 16) {
          ASSERT_EQ(leading(r, c), sum) << "rows " << rows << " at " << r << "," << c;
        }
      }
    }
  }
}

TEST(NnBackwardRecipeTest, SkippedInputGradientLeavesParameterGradientsUnchanged) {
  // The trunk shape: only the leading 16 (PN-feature) input columns are read
  // upstream. Full dX, leading-16 dX and no dX must give the same parameter
  // gradients, and the leading dX must be the full dX's first columns.
  Rng rng(47);
  Mlp full({46, 64, 32, 1}, Activation::kTanh, Activation::kIdentity, &rng);
  Mlp leading;
  leading.CastFrom(full);
  Mlp none;
  none.CastFrom(full);
  Matrix x(9, 46);
  x.FillNormal(&rng, 1.0);
  Matrix grad_out(9, 1);
  grad_out.FillNormal(&rng, 1.0);

  Matrix y;
  Matrix dx_full;
  Matrix dx_leading;
  full.ForwardInto(x, &y);
  full.BackwardInto(grad_out, &dx_full);
  leading.ForwardInto(x, &y);
  leading.BackwardInto(grad_out, &dx_leading, 16);
  none.ForwardInto(x, &y);
  none.BackwardInto(grad_out, nullptr);

  ASSERT_EQ(dx_full.cols(), 46u);
  ASSERT_EQ(dx_leading.rows(), 9u);
  ASSERT_EQ(dx_leading.cols(), 16u);
  for (size_t r = 0; r < 9; ++r) {
    for (size_t c = 0; c < 16; ++c) {
      EXPECT_EQ(dx_leading(r, c), dx_full(r, c)) << r << "," << c;
    }
  }
  auto pf = full.Params();
  auto pl = leading.Params();
  auto pn = none.Params();
  ASSERT_EQ(pf.size(), pl.size());
  ASSERT_EQ(pf.size(), pn.size());
  for (size_t p = 0; p < pf.size(); ++p) {
    for (size_t i = 0; i < pf[p].grad->size(); ++i) {
      EXPECT_EQ(pl[p].grad->data()[i], pf[p].grad->data()[i]) << "param " << p;
      EXPECT_EQ(pn[p].grad->data()[i], pf[p].grad->data()[i]) << "param " << p;
    }
  }
}

TEST(NnFastPathTest, MlpActorCriticForwardRowMatchesBatched) {
  Rng rng(19);
  MlpActorCritic model(6, &rng);
  Matrix obs(3, 6);
  obs.FillNormal(&rng, 1.0);
  Matrix mean;
  Matrix value;
  model.Forward(obs, &mean, &value);
  for (size_t r = 0; r < obs.rows(); ++r) {
    double m = 0.0;
    double v = 0.0;
    model.ForwardRow(obs.Row(r), &m, &v);
    EXPECT_EQ(m, mean(r, 0)) << "row " << r;
    EXPECT_EQ(v, value(r, 0)) << "row " << r;
  }
}

TEST(NnFastPathTest, PreferenceModelForwardRowMatchesBatched) {
  MoccConfig config;
  Rng rng(23);
  PreferenceActorCritic model(config, &rng);
  Matrix obs(4, config.ObsDim());
  obs.FillNormal(&rng, 1.0);
  Matrix mean;
  Matrix value;
  model.Forward(obs, &mean, &value);
  for (size_t r = 0; r < obs.rows(); ++r) {
    double m = 0.0;
    double v = 0.0;
    model.ForwardRow(obs.Row(r), &m, &v);
    EXPECT_EQ(m, mean(r, 0)) << "row " << r;
    EXPECT_EQ(v, value(r, 0)) << "row " << r;
  }
}

TEST(NnFastPathTest, PnCacheStaysCoherentAcrossWeightChanges) {
  // ForwardRow caches the preference-sub-network features for a repeated weight
  // vector; the cache must be dropped whenever parameters change.
  MoccConfig config;
  Rng rng(29);
  PreferenceActorCritic model(config, &rng);
  std::vector<double> obs(config.ObsDim(), 0.2);
  obs[0] = 0.5;
  obs[1] = 0.3;
  obs[2] = 0.2;

  auto batched_mean = [&](PreferenceActorCritic* m) {
    Matrix x(1, obs.size());
    x.SetRow(0, obs);
    Matrix mean;
    Matrix value;
    m->Forward(x, &mean, &value);
    return mean(0, 0);
  };

  // Warm the cache, then hit it: still identical to the batched path.
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));

  // In-place blend changes the PN weights; ForwardRow must follow.
  Rng rng2(31);
  PreferenceActorCritic other(config, &rng2);
  ASSERT_TRUE(BlendModel(&model, other, 0.5));
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));

  // A training update (ZeroGrad + optimizer step) must also invalidate.
  PpoConfig ppo_config;
  ppo_config.rollout_steps = 64;
  ppo_config.minibatch_size = 32;
  PpoTrainer trainer(&model, ppo_config);
  CcEnv env(config.MakeEnvConfig(), 91);
  model.ActionMean(obs);  // warm the cache right before the update
  trainer.TrainIteration(&env);
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));

  // Serialization round-trip: the loaded model recomputes features.
  std::vector<double> w2 = {0.1, 0.6, 0.3};
  std::copy(w2.begin(), w2.end(), obs.begin());
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));
}

// Runs the minibatch Forward + Backward of a fresh Clone of `model` (its first
// pass at a row count runs both heads on the calling thread) as the reference,
// then the same pass three times back to back on `model`. Its earlier 256-row
// pass means each of these is handed to the shared pool as a two-task
// ParallelFor, one head per task. Which thread claims which head is up to the
// scheduler; a worker that ran the last head is usually still polling when the
// next pass arrives, so the heads mostly run on two threads at once. Outputs
// and parameter gradients must be bit-identical to the reference.
void ExpectPoolHeadsMatchSerial(ActorCritic* model, size_t rows, Rng* rng) {
  Matrix obs(rows, model->obs_dim());
  obs.FillNormal(rng, 1.0);
  Matrix dmean(rows, 1);
  Matrix dvalue(rows, 1);
  dmean.FillNormal(rng, 1.0);
  dvalue.FillNormal(rng, 1.0);

  std::unique_ptr<ActorCritic> serial = model->Clone();
  Matrix mean_serial;
  Matrix value_serial;
  serial->ZeroGrad();
  serial->Forward(obs, &mean_serial, &value_serial);
  serial->Backward(dmean, dvalue);
  auto serial_params = serial->Params();

  Matrix mean_pool;
  Matrix value_pool;
  for (int pass = 0; pass < 3; ++pass) {
    model->ZeroGrad();
    model->Forward(obs, &mean_pool, &value_pool);
    model->Backward(dmean, dvalue);
    ASSERT_EQ(mean_pool.rows(), rows);
    ASSERT_EQ(value_pool.rows(), rows);
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(mean_pool(r, 0), mean_serial(r, 0)) << rows << " rows, row " << r;
      ASSERT_EQ(value_pool(r, 0), value_serial(r, 0)) << rows << " rows, row " << r;
    }
    auto pool_params = model->Params();
    ASSERT_EQ(pool_params.size(), serial_params.size());
    for (size_t p = 0; p < pool_params.size(); ++p) {
      const Matrix& g_pool = *pool_params[p].grad;
      const Matrix& g_serial = *serial_params[p].grad;
      ASSERT_EQ(g_pool.size(), g_serial.size());
      for (size_t i = 0; i < g_pool.size(); ++i) {
        ASSERT_EQ(g_pool.data()[i], g_serial.data()[i])
            << rows << " rows, param " << p << " element " << i;
      }
    }
  }
}

void ExpectHeadSplitBitIdentical(ActorCritic* model, Rng* rng) {
  // The first 256-row pass runs on the calling thread and sizes the workspaces;
  // from then on every pass of <= 256 rows splits the heads across the pool.
  Matrix warm(256, model->obs_dim());
  warm.FillNormal(rng, 1.0);
  Matrix dwarm(256, 1);
  dwarm.FillNormal(rng, 1.0);
  Matrix mean;
  Matrix value;
  model->Forward(warm, &mean, &value);
  model->Backward(dwarm, dwarm);
  // Several rounds, so a race between the heads has more than one chance to show.
  for (int round = 0; round < 8; ++round) {
    ExpectPoolHeadsMatchSerial(model, 256, rng);
    ExpectPoolHeadsMatchSerial(model, 255, rng);  // a minibatch tail
  }
}

TEST(HeadSplitTest, PreferenceModelPoolHeadsMatchSerialBitForBit) {
  MoccConfig config;
  Rng rng(53);
  PreferenceActorCritic model(config, &rng);
  ExpectHeadSplitBitIdentical(&model, &rng);
}

TEST(HeadSplitTest, MlpActorCriticPoolHeadsMatchSerialBitForBit) {
  Rng rng(59);
  MlpActorCritic model(30, &rng);
  ExpectHeadSplitBitIdentical(&model, &rng);
}

TEST(ParallelRolloutTest, PoolAndSerialCollectionAreBitIdentical) {
  auto make_trainer = [](MlpActorCritic* model) {
    PpoConfig config;
    config.seed = 5;
    config.rollout_steps = 128;
    return PpoTrainer(model, config);
  };
  Rng r1(3);
  Rng r2(3);
  MlpActorCritic m1(2, &r1);
  MlpActorCritic m2(2, &r2);
  PpoTrainer parallel = make_trainer(&m1);
  PpoTrainer serial = make_trainer(&m2);
  serial.set_parallel_collection(false);

  std::vector<std::unique_ptr<QuadEnv>> envs1;
  std::vector<std::unique_ptr<QuadEnv>> envs2;
  std::vector<Env*> raw1;
  std::vector<Env*> raw2;
  for (int i = 0; i < 4; ++i) {
    envs1.push_back(std::make_unique<QuadEnv>(1.5));
    envs2.push_back(std::make_unique<QuadEnv>(1.5));
    raw1.push_back(envs1.back().get());
    raw2.push_back(envs2.back().get());
  }
  const auto buffers_parallel = parallel.CollectRolloutsParallel(raw1, 64);
  const auto buffers_serial = serial.CollectRolloutsParallel(raw2, 64);
  ASSERT_EQ(buffers_parallel.size(), buffers_serial.size());
  for (size_t e = 0; e < buffers_parallel.size(); ++e) {
    const RolloutBuffer& bp = buffers_parallel[e];
    const RolloutBuffer& bs = buffers_serial[e];
    ASSERT_EQ(bp.size(), bs.size());
    for (size_t i = 0; i < bp.size(); ++i) {
      EXPECT_EQ(bp.transitions[i].action, bs.transitions[i].action);
      EXPECT_EQ(bp.transitions[i].log_prob, bs.transitions[i].log_prob);
      EXPECT_EQ(bp.transitions[i].reward, bs.transitions[i].reward);
      EXPECT_EQ(bp.transitions[i].value, bs.transitions[i].value);
      EXPECT_EQ(bp.advantages[i], bs.advantages[i]);
      EXPECT_EQ(bp.returns[i], bs.returns[i]);
    }
  }
}

TEST(ParallelRolloutTest, ParallelEnvTrainingIsReproducibleAcrossRuns) {
  // parallel_envs=4 two-phase training must reproduce the same reward curve (and
  // the same final policy) across runs under a fixed seed.
  OfflineTrainConfig config;
  config.seed = 11;
  config.bootstrap_iterations = 2;
  config.traversal_rounds = 1;
  config.parallel_envs = 4;
  config.mocc.landmark_step_divisor = 3;  // smallest landmark grid keeps the test fast

  auto run = [&config]() {
    Rng rng(config.seed);
    auto model = std::make_shared<PreferenceActorCritic>(config.mocc, &rng);
    OfflineTrainer trainer(model.get(), config);
    const OfflineTrainResult result = trainer.TrainTwoPhase();
    return std::make_pair(result.reward_curve, model);
  };
  const auto [curve1, model1] = run();
  const auto [curve2, model2] = run();
  ASSERT_EQ(curve1.size(), curve2.size());
  ASSERT_GT(curve1.size(), 0u);
  for (size_t i = 0; i < curve1.size(); ++i) {
    EXPECT_EQ(curve1[i], curve2[i]) << "iteration " << i;
  }
  std::vector<double> obs(config.mocc.ObsDim(), 0.1);
  EXPECT_EQ(model1->ActionMean(obs), model2->ActionMean(obs));
}

}  // namespace
}  // namespace mocc
