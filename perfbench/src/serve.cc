// `serve` (open loop): one unguarded float32 MoccServing with externally
// clocked connections and 4 objectives. A closed-loop saturation phase at 8192
// connections gives decisions/s; an open-loop phase at the nominal load gives
// poll latency from each 1 ms tick's due time. Batched forwards, the slab and
// the SIMD kernels do the work, with an almost perfect PN-cache hit rate.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/rl_cc.h"
#include "src/core/mocc_api.h"
#include "src/rl/inference_policy.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSaturationConns = 8192;
constexpr int kNominalConns = 8192;  // every connection at its 50 ms MI cadence
constexpr int kMiTicks = 50;  // 50 ms monitor intervals on 1 ms ticks
constexpr int64_t kTickNs = 1000000;
constexpr int kWarmupTicks = 200;
constexpr int kSampleStride = 256;  // every 256th connection is output-checked
constexpr double kInitialRateBps = 2e6;
constexpr int kLadderTop = 131072;  // bounds the slab to ~100 MB

mocc::WeightVector Objective(int conn) {
  static const mocc::WeightVector kMix[] = {
      {0.8, 0.1, 0.1}, {1.0 / 3, 1.0 / 3, 1.0 / 3}, {0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}};
  return kMix[conn % 4];
}

struct Served {
  explicit Served(uint64_t seed) : reports(seed) {}
  ReportTable reports;
  std::unique_ptr<mocc::MoccServing> service;
  int64_t rejected = 0;
  std::vector<mocc::ServingConnId> conns;
  std::vector<int64_t> next_report;  // per-connection report index
  // Rates after every decision of the sampled connections, in order.
  std::vector<std::vector<double>> sampled_rates;
};

void Attach(Served* s, int upto) {
  mocc::MoccServing::ConnectionOptions options;
  options.initial_rate_bps = kInitialRateBps;
  while (static_cast<int>(s->conns.size()) < upto) {
    const int c = static_cast<int>(s->conns.size());
    s->conns.push_back(s->service->AttachConnection(Objective(c), options));
    s->next_report.push_back(0);
  }
}

std::unique_ptr<Served> MakeServed(const mocc::PolicySpec& spec, uint64_t seed, int conns) {
  auto s = std::make_unique<Served>(seed);
  s->service = mocc::CreateService(spec);
  Attach(s.get(), conns);
  s->sampled_rates.resize(static_cast<size_t>(kSaturationConns / kSampleStride));
  return s;
}

void Submit(Served* s, int c) {
  if (!s->service->SubmitReport(s->conns[static_cast<size_t>(c)],
                                s->reports.Get(c, s->next_report[static_cast<size_t>(c)]++))) {
    ++s->rejected;
  }
}

// Every submitted report is well formed and for a live connection with
// nothing pending, so a rejection is an output-check failure.
void AccountReports(Served* s, Report* report) {
  report->Mismatch("report_rejected", s->rejected);
  s->rejected = 0;
}

void RecordSampled(Served* s, int c) {
  if (c % kSampleStride == 0 && c < kSaturationConns) {
    s->sampled_rates[static_cast<size_t>(c / kSampleStride)].push_back(
        s->service->RateBps(s->conns[static_cast<size_t>(c)]));
  }
}

// Closed loop: every connection reports, one poll decides the round.
int64_t SaturationRound(Served* s) {
  const int n = static_cast<int>(s->conns.size());
  for (int c = 0; c < n; ++c) {
    Submit(s, c);
  }
  const int64_t decided = static_cast<int64_t>(s->service->RatePoll());
  for (int c = 0; c < n; c += kSampleStride) {
    RecordSampled(s, c);
  }
  return decided;
}

// Open loop over connections [0, conns): connection c is due on ticks where
// (tick + c) % kMiTicks == 0. Each tick waits for its due time, submits every
// due report and polls once. Returns one record per tick after warm-up.
std::vector<Tick> OpenLoop(Served* s, int conns, int ticks) {
  std::vector<Tick> out;
  out.reserve(static_cast<size_t>(ticks));
  const int64_t t0 = NowNs() + kTickNs;
  for (int k = 0; k < kWarmupTicks + ticks; ++k) {
    Tick tick;
    tick.due_ns = t0 + static_cast<int64_t>(k) * kTickNs;
    SpinUntil(tick.due_ns);
    tick.start_ns = NowNs();
    const int first = (kMiTicks - k % kMiTicks) % kMiTicks;
    const int64_t due = (conns - first + kMiTicks - 1) / kMiTicks;
    {
      ScopedSpan span("serving.submit", due);
      for (int c = first; c < conns; c += kMiTicks) {
        Submit(s, c);
      }
    }
    int64_t decided = 0;
    {
      ScopedSpan span("serving.poll");
      decided = static_cast<int64_t>(s->service->RatePoll());
      span.set_items(decided);
    }
    tick.end_ns = NowNs();
    tick.items = decided;
    for (int c = first; c < std::min(conns, kSaturationConns); c += kMiTicks) {
      RecordSampled(s, c);
    }
    if (k >= kWarmupTicks) {
      out.push_back(tick);
    }
  }
  return out;
}

// Replays each sampled connection's report stream through its own per-flow
// float32 controller; every rate must match the engine's bit for bit.
void CheckSampled(const Served& s, const mocc::PolicySpec& spec, Report* report) {
  for (size_t i = 0; i < s.sampled_rates.size(); ++i) {
    const int c = static_cast<int>(i) * kSampleStride;
    std::unique_ptr<mocc::RlRateController> cc = spec.MakeController(Objective(c), kInitialRateBps);
    const std::vector<double>& rates = s.sampled_rates[i];
    int64_t mismatches = 0;
    for (size_t k = 0; k < rates.size(); ++k) {
      cc->OnMonitorInterval(s.reports.Get(c, static_cast<int64_t>(k)));
      if (cc->PacingRateBps() != rates[k]) {
        ++mismatches;
      }
    }
    report->ledger.Attempt("decision_check");
    if (mismatches > 0 || rates.empty()) {
      report->Mismatch("decision_check");
    }
  }
}

// A decision made by a tick that finished past the 1 ms tick missed its limit.
void AccountTicks(const std::vector<Tick>& ticks, Report* report) {
  report->ledger.Attempt("decision", TotalItems(ticks));
  report->ledger.Fail("decision_late", LateItems(ticks, kTickNs));
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  std::unique_ptr<Served> s;
  mocc::PolicySpec spec;
  AddSetup(report, [&] {
    spec = GoldenSpec(args, mocc::Precision::kFloat32);
    spec.WithInitialRate(kInitialRateBps);
    s = MakeServed(spec, args.seed, kSaturationConns);
  });

  for (int round = 0; round < 5; ++round) {
    SaturationRound(s.get());  // warm-up
  }
  std::vector<double> rates;  // one per round
  const int64_t t0 = NowNs();
  do {
    const int64_t r0 = NowNs();
    const int64_t decided = SaturationRound(s.get());
    rates.push_back(static_cast<double>(decided) / SecondsSince(r0));
  } while (SecondsSince(t0) < args.seconds * 0.25);

  const int ticks = static_cast<int>(args.seconds * 0.65 * 1e9 / kTickNs);
  const std::vector<Tick> nominal = OpenLoop(s.get(), kNominalConns, ticks);
  AccountTicks(nominal, report);
  AccountReports(s.get(), report);
  CheckSampled(*s, spec, report);
  if (BacklogGrows(nominal, kTickNs)) {
    report->Note("serve: backlog grew at the nominal load");
  }

  AddThroughput(report,
                "serve.decisions_per_s (saturation, " + std::to_string(kSaturationConns) +
                    " connections, per round)",
                rates);
  AddLatency(report, "serve.poll_us (" + std::to_string(kNominalConns) + " connections, from due)",
             LatencyFromDueUs(nominal));
}

void TraceServe(const Args& args, double budget_s, Report* report, TraceTotals* totals) {
  mocc::PolicySpec spec = GoldenSpec(args, mocc::Precision::kFloat32);
  spec.WithInitialRate(kInitialRateBps);
  std::unique_ptr<Served> s = MakeServed(spec, args.seed, kNominalConns);
  const int ticks = std::max(500, static_cast<int>(budget_s * 0.25 * 1e9 / kTickNs));

  const std::vector<Tick> untraced = OpenLoop(s.get(), kNominalConns, ticks);
  AccountTicks(untraced, report);
  const std::vector<double> lateness = LatenessUs(untraced);
  totals->lateness_us.insert(totals->lateness_us.end(), lateness.begin(), lateness.end());
  Tracer& tracer = Tracer::Get();
  tracer.Enable(3);
  const std::vector<Tick> traced = OpenLoop(s.get(), kNominalConns, ticks);
  // Batched actor forwards of 256 packed rows, through the serving replica type.
  {
    std::unique_ptr<mocc::InferencePolicy> f32 = spec.ResolveModel()->MakeFloat32Policy();
    const size_t dim = f32->obs_dim();
    std::vector<float> rows(256 * dim);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<float>(Hash3(args.seed, i, 7) % 1000) * 1e-3f;
    }
    for (size_t r = 0; r < 256; ++r) {
      rows[r * dim + 0] = 0.6f;  // a shared weight prefix, as in a serving batch
      rows[r * dim + 1] = 0.3f;
      rows[r * dim + 2] = 0.1f;
    }
    std::vector<float> means(256);
    for (int rep = 0; rep < 400; ++rep) {
      ScopedSpan span("nn.f32.actor_batch256", 256);
      f32->ActionMeansF32(rows.data(), 256, means.data());
    }
  }
  tracer.Disable();
  AccountTicks(traced, report);
  AccountReports(s.get(), report);

  const double untraced_busy = BusyNsPerTick(untraced);
  totals->overhead.push_back(BusyNsPerTick(traced) / untraced_busy - 1.0);

  const std::vector<Span> spans = DrainSpans(args, "serve", report);
  const auto stats = Aggregate(spans);
  const SpanStats& submit = stats.at("serving.submit");
  const SpanStats& poll = stats.at("serving.poll");
  report->Add("serving.submit_ns", submit.NsPerItem(), "ns");
  report->Add("serving.poll.ns_per_decision", poll.NsPerItem(), "ns");
  report->Add("serving.batch_rows_mean",
              static_cast<double>(TotalItems(traced)) / static_cast<double>(traced.size()),
              "count");
  report->Add("nn.f32.actor_batch256_ns_per_row", stats.at("nn.f32.actor_batch256").NsPerItem(),
              "ns");
  report->Add("serve.unattributed_share",
              1.0 - (submit.total_ns + poll.total_ns) / static_cast<double>(submit.count) /
                        untraced_busy,
              "frac");

  // Capacity: connections on a fixed geometric ladder, each rung an open-loop
  // window of 1000 ticks (p99 has ten samples beyond it). A rung passes when
  // p99 latency from due stays within the tick and no backlog grows. Missed
  // rungs are the measurement here, not failures.
  int max_flows = 0;
  for (int rung = 8192; rung <= kLadderTop; rung *= 2) {
    Attach(s.get(), rung);
    const std::vector<Tick> window = OpenLoop(s.get(), rung, 1000);
    const double p99 = Percentile(LatencyFromDueUs(window), 99.0);
    if (p99 > static_cast<double>(kTickNs) * 1e-3 || BacklogGrows(window, kTickNs)) {
      break;
    }
    max_flows = rung;
  }
  AccountReports(s.get(), report);
  report->Add("serving.max_flows_at_slo", max_flows, "count");
}

}  // namespace perfbench
