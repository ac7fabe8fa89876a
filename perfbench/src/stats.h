// Measurement helpers shared by every perfbench workload: the percentile rule,
// open-loop tick accounting (latency from the due time, generator lateness,
// backlog detection) and the failure ledger behind `ok_frac`.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (0 < pct <= 100) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

// Number of samples strictly above the nearest-rank `pct` percentile position:
// n - ceil(pct/100 * n).
int64_t SamplesBeyond(int64_t n, double pct);

// A timing reported as its median plus the highest percentile of the fixed
// ladder {99, 95, 90, 75} that still has at least ten samples beyond it (the
// median when none does), with the sample count. The ladder stops at p99: a
// p99.9 over a run's ten thousand ticks would be decided by its ten slowest.
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
};
Summary Summarize(const std::vector<double>& values);

// One open-loop tick: when it was due, when the generator started it, and when
// its last call returned (steady-clock nanoseconds), and the decisions it made.
struct Tick {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t items = 0;
};

// Latency of each tick measured from its due time, in microseconds — a stall
// charges every tick queued behind it, not just the one that stalled.
std::vector<double> LatencyFromDueUs(const std::vector<Tick>& ticks);
// How late the generator started each tick, in microseconds.
std::vector<double> LatenessUs(const std::vector<Tick>& ticks);
// Items (decisions) of the ticks that finished more than `limit_ns` after they
// were due: each one missed its limit.
int64_t LateItems(const std::vector<Tick>& ticks, int64_t limit_ns);
// Items over all ticks.
int64_t TotalItems(const std::vector<Tick>& ticks);
// Mean busy time (start to end) per tick, in nanoseconds.
double BusyNsPerTick(const std::vector<Tick>& ticks);
// Items per second of busy time (start to end) for each consecutive window of
// `window` ticks; a trailing partial window is dropped.
std::vector<double> BusyRates(const std::vector<Tick>& ticks, size_t window);
// True when the generator falls further behind as the window goes on: the
// median start lag of the last quarter of ticks exceeds that of the first
// quarter by more than one tick period. Windows of fewer than 8 ticks never
// count as growing.
bool BacklogGrows(const std::vector<Tick>& ticks, int64_t period_ns);

// Attempted and failed operations, by cause. A failure is anything a user of
// the system would see as a miss: a rejected or dropped report, a full ring, a
// tick past its limit, or an output-check mismatch.
class FailureLedger {
 public:
  void Attempt(const std::string& cause, int64_t n = 1);
  void Fail(const std::string& cause, int64_t n = 1);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  // 1 - failed/attempted (1 when nothing was attempted).
  double ok_frac() const;
  // "cause=failed/attempted ..." for the human-readable report.
  std::string Describe() const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, std::pair<int64_t, int64_t>> by_cause_;
};

// Peak resident set size of this process in MiB (VmHWM), 0 when unknown.
double PeakRssMb();

// Monotonic clock in nanoseconds.
int64_t NowNs();

// Order-sensitive 64-bit digest used by the output checks.
uint64_t MixU64(uint64_t h, uint64_t v);
uint64_t MixDouble(uint64_t h, double v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
