#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double pct) {
  // The epsilon keeps e.g. 99.9% of 10000 at rank 9990 despite 0.999 not being
  // exactly representable.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

}  // namespace

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t rank = NearestRank(values.size(), pct);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

int64_t SamplesBeyond(int64_t n, double pct) {
  if (n <= 0) {
    return 0;
  }
  return n - static_cast<int64_t>(NearestRank(static_cast<size_t>(n), pct));
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  s.p50 = Percentile(values, 50.0);
  s.tail = s.p50;
  for (const double pct : {99.0, 95.0, 90.0, 75.0}) {
    if (SamplesBeyond(s.n, pct) >= 10) {
      s.tail = Percentile(values, pct);
      s.tail_pct = pct;
      break;
    }
  }
  return s;
}

std::vector<double> LatencyFromDueUs(const std::vector<Tick>& ticks) {
  std::vector<double> out;
  out.reserve(ticks.size());
  for (const Tick& t : ticks) {
    out.push_back(static_cast<double>(t.end_ns - t.due_ns) * 1e-3);
  }
  return out;
}

std::vector<double> LatenessUs(const std::vector<Tick>& ticks) {
  std::vector<double> out;
  out.reserve(ticks.size());
  for (const Tick& t : ticks) {
    out.push_back(static_cast<double>(std::max<int64_t>(0, t.start_ns - t.due_ns)) * 1e-3);
  }
  return out;
}

int64_t LateItems(const std::vector<Tick>& ticks, int64_t limit_ns) {
  int64_t items = 0;
  for (const Tick& t : ticks) {
    items += t.end_ns - t.due_ns > limit_ns ? t.items : 0;
  }
  return items;
}

int64_t TotalItems(const std::vector<Tick>& ticks) {
  int64_t items = 0;
  for (const Tick& t : ticks) {
    items += t.items;
  }
  return items;
}

double BusyNsPerTick(const std::vector<Tick>& ticks) {
  double total = 0.0;
  for (const Tick& t : ticks) {
    total += static_cast<double>(t.end_ns - t.start_ns);
  }
  return ticks.empty() ? 0.0 : total / static_cast<double>(ticks.size());
}

std::vector<double> BusyRates(const std::vector<Tick>& ticks, size_t window) {
  std::vector<double> rates;
  for (size_t begin = 0; window > 0 && begin + window <= ticks.size(); begin += window) {
    int64_t items = 0, busy_ns = 0;
    for (size_t i = begin; i < begin + window; ++i) {
      items += ticks[i].items;
      busy_ns += ticks[i].end_ns - ticks[i].start_ns;
    }
    rates.push_back(busy_ns > 0 ? static_cast<double>(items) * 1e9 / busy_ns : 0.0);
  }
  return rates;
}

bool BacklogGrows(const std::vector<Tick>& ticks, int64_t period_ns) {
  const size_t n = ticks.size();
  if (n < 8) {
    return false;
  }
  const size_t quarter = n / 4;
  auto lag_median = [&](size_t begin, size_t end) {
    std::vector<double> lags;
    for (size_t i = begin; i < end; ++i) {
      lags.push_back(static_cast<double>(ticks[i].start_ns - ticks[i].due_ns));
    }
    return Median(std::move(lags));
  };
  return lag_median(n - quarter, n) - lag_median(0, quarter) >
         static_cast<double>(period_ns);
}

void FailureLedger::Attempt(const std::string& cause, int64_t n) {
  attempted_ += n;
  by_cause_[cause].second += n;
}

void FailureLedger::Fail(const std::string& cause, int64_t n) {
  failed_ += n;
  by_cause_[cause].first += n;
}

double FailureLedger::ok_frac() const {
  if (attempted_ <= 0) {
    return 1.0;
  }
  return 1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
}

std::string FailureLedger::Describe() const {
  std::ostringstream out;
  for (const auto& [cause, counts] : by_cause_) {
    out << " " << cause << "=" << counts.first << "/" << counts.second;
  }
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t MixU64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixU64(h, bits);
}

}  // namespace perfbench
