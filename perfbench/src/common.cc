#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {

mocc::PolicySpec GoldenSpec(const Args& args, mocc::Precision precision) {
  mocc::PolicySpec spec;
  spec.WithCheckpoint(args.data_dir + "/golden_model.bin").WithPrecision(precision);
  if (spec.ResolveModel() == nullptr) {
    std::fprintf(stderr, "perfbench: cannot load %s/golden_model.bin\n", args.data_dir.c_str());
    std::exit(2);
  }
  return spec;
}

double SecondsSince(int64_t t0_ns) { return static_cast<double>(NowNs() - t0_ns) * 1e-9; }

void SpinUntil(int64_t due_ns) {
  while (NowNs() < due_ns) {
  }
}

uint64_t Hash3(uint64_t seed, uint64_t a, uint64_t b) {
  return MixU64(MixU64(MixU64(0x243f6a8885a308d3ULL, seed), a), b);
}

ReportTable::ReportTable(uint64_t seed) {
  reports_.reserve(kSize);
  for (uint64_t i = 0; i < kSize; ++i) {
    const uint64_t h = Hash3(seed, 0x4e90, i);
    mocc::MonitorReport r;
    r.duration_s = 0.05;
    r.packets_sent = 80 + static_cast<int64_t>(h % 60);
    r.packets_lost = (h >> 8) % 5 == 0 ? static_cast<int64_t>((h >> 12) % 4) : 0;
    r.packets_acked = r.packets_sent - r.packets_lost;
    r.send_rate_bps = 1e6 + 1e4 * static_cast<double>((h >> 16) % 400);
    r.throughput_bps = r.send_rate_bps * (0.85 + 0.001 * static_cast<double>((h >> 24) % 150));
    r.min_rtt_s = 0.02 + 0.001 * static_cast<double>((h >> 34) % 40);
    r.avg_rtt_s = r.min_rtt_s * (1.0 + 0.01 * static_cast<double>((h >> 42) % 80));
    r.loss_rate = static_cast<double>(r.packets_lost) / static_cast<double>(r.packets_sent);
    reports_.push_back(r);
  }
}

std::vector<Span> DrainSpans(const Args& args, const std::string& workload, Report* report) {
  std::vector<Span> spans = Tracer::Get().Drain();
  const std::string path = args.out_dir + "/trace-" + workload + ".jsonl";
  if (!WriteSpans(path, spans)) {
    report->Note("could not write " + path);
  }
  return spans;
}

void AddLatency(Report* report, const std::string& label, const std::vector<double>& values_us) {
  const Summary s = Summarize(values_us);
  report->Add("latency_us_p50", s.p50, "us");
  report->Add("latency_us_tail", s.tail, "us");
  char line[256];
  std::snprintf(line, sizeof(line), "%s p50 %.2f us, p%g %.2f us (n=%lld)", label.c_str(), s.p50,
                s.tail_pct, s.tail, static_cast<long long>(s.n));
  report->Note(line);
}

void AddThroughput(Report* report, const std::string& label, const std::vector<double>& rates) {
  const double rate = Median(rates);
  report->Add("throughput_per_s", rate, "1/s");
  char line[256];
  std::snprintf(line, sizeof(line), "%s %.1f 1/s (median of %zu windows; p10 %.1f, p90 %.1f)",
                label.c_str(), rate, rates.size(), Percentile(rates, 10), Percentile(rates, 90));
  report->Note(line);
}

}  // namespace perfbench
