// `serve-churn` (open loop): the serving engine used the other way from
// `serve`. The spec is guarded int8; half the connections are self-timed on
// the deadline wheel and fed per packet (OnPacketSent/OnAck/OnLoss), half are
// externally clocked and post from producer threads through the report ring.
// Connections come and go and switch objectives across the paper's 36
// landmark objectives, so slot recycling, InternPrefix and PN-cache misses are
// all on the measured path.
//
// The traffic follows the repository's own training setup rather than chosen
// numbers: each self-timed connection sends at its own decided rate over a
// bottleneck drawn from the paper's Table 3 training ranges (TrainingRange():
// 1-5 Mb/s, 10-50 ms one-way delay, 1-3000 packet buffer, 0-3% loss), the
// externally clocked reports carry the same 1-5 Mb/s rates, a connection lives
// one training episode (400 MIs of 50 ms), and an externally clocked connection
// switches objective about once per such lifetime.
#include <algorithm>
#include <atomic>
#include <climits>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/mocc_api.h"
#include "src/core/mocc_config.h"
#include "src/core/objective_space.h"
#include "src/netsim/link_params.h"
#include "src/rl/inference_policy.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kExtConns = 1024;
constexpr int kSelfConns = 1024;
constexpr int kMiTicks = 50;
constexpr double kTickS = 0.001;
constexpr int64_t kTickNs = 1000000;
constexpr int kWarmupTicks = 200;
constexpr int kLifetimeMis = 400;  // one episode (CcEnvConfig::max_steps_per_episode)
// One attach, one detach and one switch every kChurnTicks ticks keeps kSelfConns
// connections living kLifetimeMis MIs each.
constexpr int kChurnTicks = kLifetimeMis * kMiTicks / kSelfConns;
constexpr size_t kRateWindow = 1000;  // ticks per busy-rate window
constexpr int kMaxProducers = 2;
// The consumer polls tick k only once every producer has posted the reports
// due up to tick k - kProducerSlack (see Churn).
constexpr int kProducerSlack = 40;

int Producers(const Args& args) {
  return std::max(1, std::min(kMaxProducers, args.nproc - 1));
}

// The landmark objectives MOCC trains on at the default step divisor.
const std::vector<mocc::WeightVector>& Landmarks() {
  static const std::vector<mocc::WeightVector> grid =
      mocc::GenerateWeightGrid(mocc::MoccConfig().landmark_step_divisor);
  return grid;
}

mocc::WeightVector ObjectiveFor(uint64_t seed, uint64_t key) {
  const std::vector<mocc::WeightVector>& grid = Landmarks();
  return grid[Hash3(seed, 0xC4, key) % grid.size()];
}

// The bottleneck a self-timed connection sends over: a fluid droptail queue
// with iid wire loss, served at the link rate.
struct Link {
  mocc::LinkParams params;
  double queue_bits = 0.0;
  double credit_pkts = 0.0;  // pacing credit carried between ticks
  int64_t next_seq = 0;
};

// One tick of a connection's packets over its link.
struct TickTraffic {
  int64_t sent = 0;
  int64_t acked = 0;
  double rtt_s = 0.0;
};

// One churn schedule on one service. Everything the connections see is a pure
// function of (seed, tick) and of the engine's own earlier decisions (a
// self-timed connection's packets follow its rate), so a live run (wall-clock
// ticks, producer threads, PostReport) and a serial replay (back-to-back ticks,
// SubmitReport) must leave every connection with the same decision checksum.
//
// Why the live run is deterministic: a connection's checksum is read, and its
// objective switched or the connection detached, on the tick before its next
// report is due. Producers post a report only once the consumer has started its
// due tick (so no report is decided before a switch that precedes it), and the
// consumer does not poll tick k until every report due by k - kProducerSlack
// has been posted (so every report is decided before it is read).
class Churn {
 public:
  Churn(const mocc::PolicySpec& spec, uint64_t seed) : seed_(seed), reports_(seed) {
    service_ = mocc::CreateService(spec);
    for (int e = 0; e < kExtConns; ++e) {
      ext_.push_back(service_->AttachConnection(ObjectiveFor(seed_, Hash3(seed_, 1, e))));
      next_report_.push_back(0);
      checksums_.push_back(0);
    }
    for (int i = 0; i < kSelfConns; ++i) {
      AttachSelf(i % kMiTicks, /*control=*/false);
    }
    PlanTraffic();
  }

  // One tick of the schedule. `replay` = serial replay: reports go through
  // SubmitReport here; otherwise producers post them. Returns MIs decided.
  // PlanTraffic() runs between ticks.
  int64_t Tick(int k, bool replay) {
    const int read_phase = (k + 1) % kMiTicks;
    for (int e = read_phase; e < kExtConns; e += kMiTicks) {
      Read(ext_[static_cast<size_t>(e)], e);
    }
    std::deque<SelfConn>& bucket = buckets_[static_cast<size_t>(read_phase)];
    for (const SelfConn& c : bucket) {
      Read(c.id, c.logical);
    }
    Feed(k);
    // Control, every kChurnTicks ticks: detach the oldest connection of the
    // read bucket, attach a new one, switch the objective of one external
    // connection due next tick.
    if (k % kChurnTicks == 0) {
      if (!bucket.empty()) {
        const SelfConn victim = bucket.front();
        bucket.pop_front();
        self_.erase(std::find_if(self_.begin(), self_.end(), [&](const SelfConn& c) {
          return c.logical == victim.logical;
        }));
        Control("serving.detach", [&] { return service_->DetachConnection(victim.id); });
      }
      AttachSelf(k, /*control=*/true);
      const int slots = (kExtConns - read_phase + kMiTicks - 1) / kMiTicks;
      const int e = read_phase + kMiTicks * static_cast<int>(Hash3(seed_, 2, k) %
                                                             static_cast<uint64_t>(slots));
      const mocc::WeightVector w = ObjectiveFor(seed_, Hash3(seed_, 3, k));
      Control("serving.switch",
              [&] { return service_->SwitchObjective(ext_[static_cast<size_t>(e)], w); });
    }
    if (replay) {
      for (int e = k % kMiTicks; e < kExtConns; e += kMiTicks) {
        if (!service_->SubmitReport(ext_[static_cast<size_t>(e)], NextReport(e))) {
          ++rejected_;
        }
      }
    } else {
      consumer_tick_.store(k, std::memory_order_release);
      for (const auto& done : producer_done_) {
        while (done.load(std::memory_order_acquire) < k - kProducerSlack) {
          std::this_thread::yield();
        }
      }
    }
    ScopedSpan span("serving.poll");
    const int64_t processed = static_cast<int64_t>(service_->RatePoll(k * kTickS));
    span.set_items(processed);
    return processed;
  }

  // Producers [0, producers) will post ticks from k_begin on; the rest never
  // hold the consumer back.
  void ResetProducers(int k_begin, int producers) {
    for (int p = 0; p < kMaxProducers; ++p) {
      producer_done_[p].store(p < producers ? k_begin - 1 : INT_MAX, std::memory_order_relaxed);
    }
  }

  // Posts the external reports due on ticks [k_begin, k_end) owned by producer
  // `p` of `producers`, each at its wall-clock due time.
  void Produce(int p, int producers, int k_begin, int k_end, int64_t t0_ns) {
    for (int k = k_begin; k < k_end; ++k) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(t0_ns + static_cast<int64_t>(k - k_begin) * kTickNs)));
      while (consumer_tick_.load(std::memory_order_acquire) < k) {
        std::this_thread::yield();
      }
      for (int e = k % kMiTicks; e < kExtConns; e += kMiTicks) {
        if (e % producers != p) {
          continue;
        }
        const mocc::MonitorReport& r = NextReport(e);
        for (;;) {
          bool ok = false;
          {
            ScopedSpan span("serving.post");
            ok = service_->PostReport(ext_[static_cast<size_t>(e)], r);
          }
          posts_.fetch_add(1, std::memory_order_relaxed);
          if (ok) {
            break;
          }
          full_.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
      producer_done_[p].store(k, std::memory_order_release);
    }
  }

  // Moves the next tick's packets of every live self-timed connection over its
  // link. This is the network's work, not the program's, so it runs between
  // ticks, outside the timed part.
  void PlanTraffic() {
    traffic_.clear();
    for (const SelfConn& c : self_) {
      traffic_.push_back(Carry(c));
    }
  }

  // Moves the run's operation counts into the ledger.
  void Account(Report* report) {
    report->ledger.Attempt("control", control_ops_);
    report->ledger.Fail("control_failed", control_failed_);
    // Every replayed report is well formed and for a live connection with
    // nothing pending, so a rejection is an output-check failure.
    report->Mismatch("report_rejected", rejected_);
    report->ledger.Attempt("post", posts_.load());
    report->ledger.Fail("ring_full", full_.load());
    const int64_t dropped = service_->stats().ring_dropped;
    report->ledger.Fail("ring_dropped", dropped - dropped_accounted_);
    dropped_accounted_ = dropped;
    control_ops_ = control_failed_ = rejected_ = 0;
    posts_ = 0;
    full_ = 0;
  }

  mocc::MoccServing* service() { return service_.get(); }
  const std::vector<uint64_t>& checksums() const { return checksums_; }
  const std::vector<double>& control_us() const { return control_us_; }
  int64_t posts() const { return posts_.load(); }
  int64_t full() const { return full_.load(); }

 private:
  struct SelfConn {
    mocc::ServingConnId id;
    int64_t logical = 0;
  };

  // A self-timed connection starting at tick k; `control` = part of the
  // measured churn stream rather than set-up.
  void AttachSelf(int k, bool control) {
    mocc::MoccServing::ConnectionOptions options;
    options.mi_duration_s = kMiTicks * kTickS;
    options.start_time_s = k * kTickS;
    const int64_t logical = static_cast<int64_t>(checksums_.size());
    const mocc::WeightVector w = ObjectiveFor(seed_, Hash3(seed_, 4, logical));
    mocc::Rng rng(Hash3(seed_, 5, logical));
    links_.resize(static_cast<size_t>(logical) + 1);
    links_.back().params = mocc::TrainingRange().Sample(&rng);
    mocc::ServingConnId id;
    if (control) {
      Control("serving.attach", [&] {
        id = service_->AttachConnection(w, options);
        return id.valid();
      });
    } else {
      id = service_->AttachConnection(w, options);
    }
    checksums_.push_back(0);
    buckets_[static_cast<size_t>(k % kMiTicks)].push_back({id, logical});
    self_.push_back({id, logical});
  }

  template <typename Fn>
  void Control(const char* name, Fn fn) {
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan span(name);
      ok = fn();
    }
    control_us_.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    ++control_ops_;
    control_failed_ += ok ? 0 : 1;
  }

  void Read(mocc::ServingConnId id, int64_t logical) {
    uint64_t& h = checksums_[static_cast<size_t>(logical)];
    h = MixU64(h, static_cast<uint64_t>(service_->DecisionCount(id)));
    h = MixDouble(h, service_->RateBps(id));
  }

  // Moves one tick of connection `c`'s traffic over its link: packets paced
  // at the connection's current rate join the queue, those beyond the buffer
  // are dropped, the rest face iid wire loss, and the survivors are acked with
  // the RTT of the queue they joined.
  TickTraffic Carry(const SelfConn& c) {
    Link& link = links_[static_cast<size_t>(c.logical)];
    const double bits = static_cast<double>(mocc::kDefaultPacketSizeBits);
    const double capacity_bits = link.params.bandwidth_bps * kTickS;
    link.credit_pkts += service_->RateBps(c.id) * kTickS / bits;
    TickTraffic t;
    t.sent = static_cast<int64_t>(link.credit_pkts);
    link.credit_pkts -= static_cast<double>(t.sent);
    const double room_bits = link.params.queue_capacity_pkts * bits - link.queue_bits;
    const int64_t queued = std::min(t.sent, static_cast<int64_t>(std::max(0.0, room_bits) / bits));
    link.queue_bits += static_cast<double>(queued) * bits;
    t.rtt_s = link.params.BaseRttS() + link.queue_bits / link.params.bandwidth_bps;
    link.queue_bits = std::max(0.0, link.queue_bits - capacity_bits);
    const double loss_threshold = link.params.random_loss_rate * 18446744073709551616.0;
    for (int64_t p = 0; p < queued; ++p) {
      const uint64_t h = Hash3(seed_, static_cast<uint64_t>(c.logical),
                               static_cast<uint64_t>(link.next_seq + p));
      t.acked += static_cast<double>(h) < loss_threshold ? 0 : 1;
    }
    return t;
  }

  // Per-packet feedback from the planned traffic of every live self-timed
  // connection.
  void Feed(int k) {
    int64_t sent = 0, acks = 0;
    for (const TickTraffic& t : traffic_) {
      sent += t.sent;
      acks += t.acked;
    }
    {
      ScopedSpan span("serving.on_packet_sent", sent);
      for (size_t i = 0; i < self_.size(); ++i) {
        if (traffic_[i].sent > 0) {
          service_->OnPacketSent(self_[i].id, traffic_[i].sent);
        }
      }
    }
    {
      ScopedSpan span("serving.on_ack", acks);
      mocc::AckInfo ack;
      ack.size_bits = mocc::kDefaultPacketSizeBits;
      ack.ack_time_s = k * kTickS;
      for (size_t i = 0; i < self_.size(); ++i) {
        const TickTraffic& t = traffic_[i];
        Link& link = links_[static_cast<size_t>(self_[i].logical)];
        ack.rtt_s = t.rtt_s;
        ack.send_time_s = ack.ack_time_s - t.rtt_s;
        for (int64_t a = 0; a < t.acked; ++a) {
          ack.seq = link.next_seq++;
          service_->OnAck(self_[i].id, ack);
        }
      }
    }
    {
      ScopedSpan span("serving.on_loss", sent - acks);
      mocc::LossInfo loss;
      loss.detect_time_s = k * kTickS;
      for (size_t i = 0; i < self_.size(); ++i) {
        Link& link = links_[static_cast<size_t>(self_[i].logical)];
        for (int64_t l = traffic_[i].acked; l < traffic_[i].sent; ++l) {
          loss.seq = link.next_seq++;
          service_->OnLoss(self_[i].id, loss);
        }
      }
    }
  }

  const mocc::MonitorReport& NextReport(int e) {
    return reports_.Get(e, next_report_[static_cast<size_t>(e)]++);
  }

  uint64_t seed_;
  ReportTable reports_;
  std::unique_ptr<mocc::MoccServing> service_;
  std::vector<mocc::ServingConnId> ext_;
  std::vector<int64_t> next_report_;  // external connection e: written by its producer only
  std::vector<uint64_t> checksums_;   // by logical connection
  std::vector<Link> links_;           // by logical connection (self-timed only)
  std::deque<SelfConn> buckets_[kMiTicks];
  std::vector<SelfConn> self_;
  std::vector<TickTraffic> traffic_;
  std::vector<double> control_us_;
  int64_t control_ops_ = 0;
  int64_t control_failed_ = 0;
  int64_t rejected_ = 0;
  int64_t dropped_accounted_ = 0;
  std::atomic<int> consumer_tick_{-1};
  std::atomic<int> producer_done_[kMaxProducers] = {};
  std::atomic<int64_t> posts_{0};
  std::atomic<int64_t> full_{0};
};

mocc::PolicySpec ChurnSpec(const Args& args) {
  mocc::PolicySpec spec = GoldenSpec(args, mocc::Precision::kInt8);
  spec.WithGuard(true);
  return spec;
}

struct LiveWindow {
  std::vector<Tick> ticks;  // after warm-up
  int64_t processed = 0;    // every tick and the final drain
};

// Runs ticks [k_begin, k_end) on the wall clock with producer threads; the
// first `warmup` ticks are not recorded.
LiveWindow RunLive(Churn* churn, const Args& args, int k_begin, int k_end, int warmup,
                   Report* report) {
  LiveWindow w;
  const int64_t t0 = NowNs() + 2 * kTickNs;
  const int producers = Producers(args);
  churn->ResetProducers(k_begin, producers);
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([=] { churn->Produce(p, producers, k_begin, k_end, t0); });
  }
  for (int k = k_begin; k < k_end; ++k) {
    Tick tick;
    tick.due_ns = t0 + static_cast<int64_t>(k - k_begin) * kTickNs;
    SpinUntil(tick.due_ns);
    tick.start_ns = NowNs();
    tick.items = churn->Tick(k, /*replay=*/false);
    tick.end_ns = NowNs();
    churn->PlanTraffic();
    w.processed += tick.items;
    if (k - k_begin >= warmup) {
      w.ticks.push_back(tick);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  w.processed += static_cast<int64_t>(churn->service()->RatePoll());  // posted after the last tick
  // A decision made by a tick that finished past the 1 ms tick missed its limit.
  report->ledger.Attempt("decision", TotalItems(w.ticks));
  report->ledger.Fail("decision_late", LateItems(w.ticks, kTickNs));
  return w;
}

// Serial replay of ticks [0, k_end) on a fresh service; it must leave every
// connection with the live run's checksum.
void ReplayAndCheck(const Churn& live, const Args& args, int k_end, Report* report) {
  Churn replay(ChurnSpec(args), args.seed);
  for (int k = 0; k < k_end; ++k) {
    replay.Tick(k, /*replay=*/true);
    replay.PlanTraffic();
  }
  replay.Account(report);
  const std::vector<uint64_t>& a = live.checksums();
  const std::vector<uint64_t>& b = replay.checksums();
  int64_t mismatches = a.size() == b.size() ? 0 : 1;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    mismatches += a[i] != b[i] ? 1 : 0;
  }
  report->ledger.Attempt("decision_check", static_cast<int64_t>(a.size()));
  report->Mismatch("decision_check", mismatches);
}

}  // namespace

void RunChurn(const Args& args, Report* report) {
  std::unique_ptr<Churn> churn;
  AddSetup(report, [&] { churn = std::make_unique<Churn>(ChurnSpec(args), args.seed); });
  const int ticks = kWarmupTicks + static_cast<int>(args.seconds * 0.8 / kTickS);
  const LiveWindow w = RunLive(churn.get(), args, 0, ticks, kWarmupTicks, report);
  churn->Account(report);
  ReplayAndCheck(*churn, args, ticks, report);
  if (BacklogGrows(w.ticks, kTickNs)) {
    report->Note("serve-churn: backlog grew at the nominal load");
  }
  // Capacity under churn: decisions per second of the serving thread's busy
  // time at the nominal load.
  AddThroughput(report, "churn.decisions_per_s (per busy second, windows of 1000 ticks)",
                BusyRates(w.ticks, kRateWindow));
  AddLatency(report, "churn.poll_us (from due)", LatencyFromDueUs(w.ticks));
  const Summary control = Summarize(churn->control_us());
  report->Note("churn.control_us p50 " + std::to_string(control.p50) + " p" +
               std::to_string(control.tail_pct) + " " + std::to_string(control.tail) +
               " (n=" + std::to_string(control.n) + ")");
}

void TraceChurn(const Args& args, double budget_s, Report* report, TraceTotals* totals) {
  Churn churn(ChurnSpec(args), args.seed);
  const int window = kWarmupTicks + std::max(500, static_cast<int>(budget_s * 0.3 / kTickS));
  const LiveWindow untraced = RunLive(&churn, args, 0, window, kWarmupTicks, report);
  const std::vector<double> lateness = LatenessUs(untraced.ticks);
  totals->lateness_us.insert(totals->lateness_us.end(), lateness.begin(), lateness.end());
  const double control_p99 = Percentile(churn.control_us(), 99.0);  // untraced
  churn.Account(report);

  mocc::MoccServing* service = churn.service();
  const mocc::MoccServing::Stats before = service->stats();
  const int64_t pn_before = service->PnRecomputeCount();
  Tracer& tracer = Tracer::Get();
  tracer.Enable(4);
  const LiveWindow traced = RunLive(&churn, args, window, 2 * window, kWarmupTicks, report);
  tracer.Disable();
  const mocc::MoccServing::Stats after = service->stats();
  const int64_t pn_after = service->PnRecomputeCount();
  const double posts = static_cast<double>(churn.posts());
  const double full = static_cast<double>(churn.full());
  churn.Account(report);
  ReplayAndCheck(churn, args, 2 * window, report);
  {
    // Single-row int8 actor forwards through the quantized replica.
    std::unique_ptr<mocc::InferencePolicy> int8 =
        ChurnSpec(args).ResolveModel()->MakeInt8Policy();
    std::vector<std::vector<double>> rows(256, std::vector<double>(int8->obs_dim()));
    for (size_t r = 0; r < rows.size(); ++r) {
      const mocc::WeightVector w = ObjectiveFor(args.seed, r);
      rows[r][0] = w.thr;
      rows[r][1] = w.lat;
      rows[r][2] = w.loss;
      for (size_t i = 3; i < rows[r].size(); ++i) {
        rows[r][i] = static_cast<double>(Hash3(args.seed, r, i) % 1000) * 1e-3 - 0.5;
      }
    }
    tracer.Enable(4);
    for (int rep = 0; rep < 200; ++rep) {
      ScopedSpan span("nn.int8.actor_row", static_cast<int64_t>(rows.size()));
      for (const auto& row : rows) {
        int8->ActionMean(row);
      }
    }
    tracer.Disable();
  }

  const double untraced_busy = BusyNsPerTick(untraced.ticks);
  const double traced_busy = BusyNsPerTick(traced.ticks);
  totals->overhead.push_back(traced_busy / untraced_busy - 1.0);
  report->Note("serve-churn: busy per tick untraced " + std::to_string(untraced_busy * 1e-3) +
               " us, traced " + std::to_string(traced_busy * 1e-3) + " us");

  const std::vector<Span> spans = DrainSpans(args, "serve-churn", report);
  const auto stats = Aggregate(spans);
  const double decisions = static_cast<double>(after.decisions - before.decisions);
  const double ring = static_cast<double>(after.ring_reports - before.ring_reports);
  const double polls = static_cast<double>(after.polls - before.polls);
  const double processed = static_cast<double>(traced.processed);
  // Layer time per tick over the whole traced window (warm-up ticks included).
  double tick_layers_ns = 0.0;
  for (const char* name : {"serving.on_packet_sent", "serving.on_ack", "serving.on_loss",
                           "serving.attach", "serving.detach", "serving.switch",
                           "serving.poll"}) {
    tick_layers_ns += stats.at(name).total_ns;
  }
  tick_layers_ns /= static_cast<double>(stats.at("serving.poll").count);
  report->Add("nn.int8.actor_row_ns", stats.at("nn.int8.actor_row").NsPerItem(), "ns");
  report->Add("serving.pn_recompute_per_kdecision",
              static_cast<double>(pn_after - pn_before) * 1e3 / decisions, "count");
  report->Add("serving.wheel_decisions_per_poll", (processed - ring) / polls, "count");
  report->Add("serving.policy_decision_frac", decisions / processed, "frac");
  report->Add("serving.on_ack_ns", stats.at("serving.on_ack").NsPerItem(), "ns");
  report->Add("serving.attach_ns", stats.at("serving.attach").NsPerItem(), "ns");
  report->Add("serving.detach_ns", stats.at("serving.detach").NsPerItem(), "ns");
  report->Add("serving.switch_ns", stats.at("serving.switch").NsPerItem(), "ns");
  report->Add("serving.control_us_p99", control_p99, "us");
  report->Add("serving.post_ns", stats.at("serving.post").NsPerItem(), "ns");
  report->Add("serving.post_full_frac", full / std::max(1.0, posts), "frac");
  report->Add("serving.ring_drop_frac",
              static_cast<double>(after.ring_dropped - before.ring_dropped) / std::max(1.0, ring),
              "frac");
  report->Add("serve-churn.unattributed_share", 1.0 - tick_layers_ns / untraced_busy, "frac");
}

}  // namespace perfbench
