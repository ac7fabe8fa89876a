// The four perfbench workloads. Each has an untraced end-to-end run (the
// metrics a user of the system sees) and a traced pass (spans around the
// benchmark's calls into each layer, giving the per-layer metrics).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/policy_spec.h"
#include "src/netsim/cc_interface.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;  // holds golden_model.bin
  std::string out_dir;   // trace files go here
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  FailureLedger ledger;
  std::vector<Metric> metrics;      // the JSON result
  std::vector<std::string> detail;  // human-readable lines
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { detail.push_back(line); }
  // Records a failed output check: counted in the ledger and makes the run
  // incorrect.
  void Mismatch(const std::string& cause, int64_t n = 1) {
    if (n > 0) {
      ledger.Fail(cause, n);
      correct = false;
    }
  }
};

// Reconciliation figures a traced pass hands back to main().
struct TraceTotals {
  // Traced time per unit of work over the same code untraced, minus one.
  std::vector<double> overhead;
  // Open-loop generator lateness samples (us) from untraced windows.
  std::vector<double> lateness_us;
};

// End-to-end run: adds setup_s, throughput_per_s, latency_us_p50 and
// latency_us_tail (main() adds peak_rss_mb and ok_frac).
void RunTrain(const Args& args, Report* report);
void RunSim(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);
void RunChurn(const Args& args, Report* report);

// Traced pass over `budget_s` seconds: adds the workload's per-layer metrics
// and `<workload>.unattributed_share`.
void TraceTrain(const Args& args, double budget_s, Report* report, TraceTotals* totals);
void TraceSim(const Args& args, double budget_s, Report* report, TraceTotals* totals);
void TraceServe(const Args& args, double budget_s, Report* report, TraceTotals* totals);
void TraceChurn(const Args& args, double budget_s, Report* report, TraceTotals* totals);

// --- shared by the workloads ----------------------------------------------

// The committed float32-deployable golden checkpoint, loaded into `spec`.
mocc::PolicySpec GoldenSpec(const Args& args, mocc::Precision precision);

// Seconds elapsed since `t0_ns`.
double SecondsSince(int64_t t0_ns);

// Busy-waits until the steady clock reaches `due_ns` (the open-loop schedule).
void SpinUntil(int64_t due_ns);

// Deterministic 64-bit hash of (seed, a, b) for generated inputs.
uint64_t Hash3(uint64_t seed, uint64_t a, uint64_t b);

// Monitor reports for externally clocked connections, generated from the seed
// once at set-up so the timed loops do not pay for input generation. Report
// `index` of connection `conn` is a pure function of (seed, conn, index), so
// the engine and every reference see the same stream.
class ReportTable {
 public:
  explicit ReportTable(uint64_t seed);
  const mocc::MonitorReport& Get(int conn, int64_t index) const {
    return reports_[(static_cast<uint64_t>(conn) * 131 + static_cast<uint64_t>(index) * 17) &
                    (kSize - 1)];
  }

 private:
  static constexpr uint64_t kSize = 4096;
  std::vector<mocc::MonitorReport> reports_;
};

// Drains the tracer and writes the spans to <out_dir>/trace-<workload>.jsonl
// (a write failure is noted, not fatal). Returns the spans.
std::vector<Span> DrainSpans(const Args& args, const std::string& workload, Report* report);

// Adds latency_us_p50 and latency_us_tail: the whole run's Summarize() of
// `values_us`, and a detail line naming the workload-specific quantity, its
// tail percentile and the sample count.
void AddLatency(Report* report, const std::string& label, const std::vector<double>& values_us);

// Adds throughput_per_s, the median of `rates` (one per window of the
// measured run: a training, a rotation, a round or a run of ticks), and a
// detail line with their spread.
void AddThroughput(Report* report, const std::string& label, const std::vector<double>& rates);

// Adds setup_s: the median over kSetupBatches batches of the mean time of one
// `setup()` call, where a batch repeats the call until it has taken at least
// kSetupBatchS (at least once). Batching turns set-ups of a few microseconds
// into samples long enough that timer and cache noise average out.
constexpr int kSetupBatches = 9;
constexpr double kSetupBatchS = 0.05;
template <typename Fn>
void AddSetup(Report* report, Fn setup) {
  std::vector<double> per_call_s;
  for (int batch = 0; batch < kSetupBatches; ++batch) {
    int calls = 0;
    const int64_t t0 = NowNs();
    do {
      setup();
      ++calls;
    } while (SecondsSince(t0) < kSetupBatchS);
    per_call_s.push_back(SecondsSince(t0) / calls);
  }
  report->Add("setup_s", Median(per_call_s), "s");
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
