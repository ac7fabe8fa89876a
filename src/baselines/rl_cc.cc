#include "src/baselines/rl_cc.h"

#include <algorithm>
#include <cassert>

#include "src/baselines/cubic.h"
#include "src/envs/cc_env.h"
#include "src/netsim/link_params.h"

namespace mocc {

RlRateController::RlRateController(std::shared_ptr<ActorCritic> model, Options options)
    : model_(std::move(model)),
      options_(std::move(options)),
      history_(options_.history_len, options_.include_ecn),
      rate_bps_(options_.initial_rate_bps) {
  assert(model_ != nullptr);
  assert(model_->obs_dim() ==
         options_.observation_prefix.size() + history_.entry_width() * options_.history_len);
  float32_policy_ = model_->MakeInferencePolicy(options_.precision);
  if (options_.guard) {
    GuardedPolicy::Options guard_options = options_.guard_options;
    guard_options.min_rate_bps = options_.min_rate_bps;
    guard_options.max_rate_bps = options_.max_rate_bps;
    guard_ = std::make_unique<GuardedPolicy>(guard_options);
    fallback_ = std::make_unique<CubicCc>();
  }
}

void RlRateController::SetObservationPrefix(std::vector<double> prefix) {
  assert(model_->obs_dim() == prefix.size() + history_.entry_width() * options_.history_len);
  options_.observation_prefix = std::move(prefix);
}

void RlRateController::OnFlowStart(double now_s) {
  if (fallback_ != nullptr) {
    fallback_->OnFlowStart(now_s);
  }
}

void RlRateController::OnAck(const AckInfo& ack) {
  if (fallback_ != nullptr) {
    fallback_->OnAck(ack);
  }
}

void RlRateController::OnPacketLost(const LossInfo& loss) {
  if (fallback_ != nullptr) {
    fallback_->OnPacketLost(loss);
  }
}

void RlRateController::OnTimeout(double now_s) {
  if (fallback_ != nullptr) {
    fallback_->OnTimeout(now_s);
  }
}

double RlRateController::FallbackRateBps(const MonitorReport& report) const {
  // Translate CUBIC's window into a pacing rate over the freshest RTT estimate
  // available (the 1 ms floor covers MIs that saw no ACKs at all).
  const double rtt_s = std::max({report.avg_rtt_s, report.min_rtt_s, 1e-3});
  const double rate =
      fallback_->CwndPackets() * static_cast<double>(kDefaultPacketSizeBits) / rtt_s;
  return std::clamp(rate, options_.min_rate_bps, options_.max_rate_bps);
}

void RlRateController::OnMonitorInterval(const MonitorReport& report) {
  if (fallback_ != nullptr) {
    fallback_->OnMonitorInterval(report);
  }
  history_.Push(report);
  if (guard_ != nullptr && !guard_->BeginInterval()) {
    // Breaker open: the fallback owns this interval and inference is skipped.
    rate_bps_ = FallbackRateBps(report);
    return;
  }
  std::vector<double> obs = options_.observation_prefix;
  history_.AppendObservation(&obs);
  const double action =
      float32_policy_ != nullptr ? float32_policy_->ActionMean(obs) : model_->ActionMean(obs);
  ++inference_count_;
  last_observation_ = std::move(obs);
  if (guard_ != nullptr) {
    const double proposed =
        CcEnv::ApplyRateAction(rate_bps_, action, options_.action_scale);
    if (!guard_->ValidateDecision(action, proposed, rate_bps_)) {
      rate_bps_ = FallbackRateBps(report);
      return;
    }
    rate_bps_ = std::clamp(proposed, options_.min_rate_bps, options_.max_rate_bps);
    return;
  }
  rate_bps_ = CcEnv::ApplyRateAction(rate_bps_, action, options_.action_scale);
  rate_bps_ = std::clamp(rate_bps_, options_.min_rate_bps, options_.max_rate_bps);
}

}  // namespace mocc
