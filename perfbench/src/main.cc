// perfbench: the repository's layered benchmark. One invocation runs one
// workload untraced (`--trace 0`, end-to-end metrics) or the traced pass over
// every workload (`--trace 1`, per-layer metrics). The last stdout line is the
// JSON result; the lines before it are the stamp and human-readable detail.
//
//   perfbench --workload train|sim|serve|serve-churn --seed N --seconds S
//             --trace 0|1 --data DIR --out DIR
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>

#include "src/core/mocc_api.h"
#include "src/nn/simd/dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH 0
#endif

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"train", "sim", "serve", "serve-churn"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|sim|serve|serve-churn --seed N "
               "--seconds S --trace 0|1 --data DIR --out DIR\n");
  return 2;
}

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) {
      return true;
    }
  }
  return false;
}

void PrintStamp(const Args& args) {
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %d, \"hardware_concurrency\": %u, \"simd_tier\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"native_arch\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.nproc, std::thread::hardware_concurrency(),
      mocc::simd::TierName(mocc::simd::ActiveTier()), __VERSION__, PERFBENCH_BUILD_TYPE,
      PERFBENCH_NATIVE_ARCH ? "true" : "false");
}

// Set-up costs the serving workloads pay before their first decision.
void TraceSetupCosts(const Args& args, Report* report) {
  std::vector<double> load_ms, create_ms;
  for (int rep = 0; rep < 5; ++rep) {
    mocc::PolicySpec spec;
    spec.WithCheckpoint(args.data_dir + "/golden_model.bin")
        .WithPrecision(mocc::Precision::kFloat32);
    int64_t t0 = NowNs();
    spec.ResolveModel();
    load_ms.push_back(SecondsSince(t0) * 1e3);
    t0 = NowNs();
    std::unique_ptr<mocc::MoccServing> service = mocc::CreateService(spec);
    create_ms.push_back(SecondsSince(t0) * 1e3);
  }
  report->Add("core.checkpoint_load_ms", Median(load_ms), "ms");
  report->Add("core.create_service_ms", Median(create_ms), "ms");
}

void RunTraced(const Args& args, Report* report) {
  TraceTotals totals;
  const double budget_s = args.seconds / 4.0;
  TraceTrain(args, budget_s, report, &totals);
  TraceSim(args, budget_s, report, &totals);
  TraceServe(args, budget_s, report, &totals);
  TraceChurn(args, budget_s, report, &totals);
  TraceSetupCosts(args, report);
  report->Add("loadgen.late_us_p99", Percentile(totals.lateness_us, 99.0), "us");
  report->Add("trace.overhead_frac",
              std::accumulate(totals.overhead.begin(), totals.overhead.end(), 0.0) /
                  static_cast<double>(totals.overhead.size()),
              "frac");
}

void RunUntraced(const Args& args, Report* report) {
  if (args.workload == "train") {
    RunTrain(args, report);
  } else if (args.workload == "sim") {
    RunSim(args, report);
  } else if (args.workload == "serve") {
    RunServe(args, report);
  } else {
    RunChurn(args, report);
  }
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("ok_frac", report->ledger.ok_frac(), "frac");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--data") {
      args.data_dir = value;
    } else if (arg == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (!KnownWorkload(args.workload) || !(args.seconds > 0.0) || args.data_dir.empty() ||
      args.out_dir.empty()) {
    return Usage();
  }
  PrintStamp(args);

  Report report;
  if (args.trace) {
    RunTraced(args, &report);
  } else {
    RunUntraced(args, &report);
  }
  for (const std::string& line : report.detail) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("failures:%s\n", report.ledger.Describe().c_str());

  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, report.ledger.attempted())),
              static_cast<long long>(report.ledger.failed()), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
