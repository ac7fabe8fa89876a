// In-memory span recorder for the traced run. Spans wrap the benchmark's own
// calls into each layer's public functions (nothing inside the program is
// instrumented); they are kept in per-thread buffers and written out when the
// run ends. With the tracer disabled a ScopedSpan costs one relaxed load.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // interned (see Intern) or a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint32_t run = 0;
  int64_t items = 1;  // operations the span covers (e.g. reports in one submit loop)
};

// Stable C string for a span name built at run time.
const char* Intern(const std::string& name);

class Tracer {
 public:
  static Tracer& Get();

  // Starts recording spans tagged with `run_id`; Disable stops recording.
  void Enable(uint32_t run_id);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint32_t run_id() const { return run_id_.load(std::memory_order_relaxed); }

  // Moves every finished span out of all thread buffers. Call only while no
  // other thread is recording (after producers join).
  std::vector<Span> Drain();

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    std::vector<Span> done;
    std::vector<uint64_t> open;
  };
  ThreadBuffer* Buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> run_id_{0};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// Records one span for its lifetime; its parent is the innermost open span on
// the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t items = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void set_items(int64_t items) { span_.items = items; }

 private:
  Span span_;
  Tracer::ThreadBuffer* buffer_ = nullptr;  // null = tracer was off at entry
};

// Self time of every span: its duration minus the part of its interval that
// its children cover (overlapping children are counted once).
std::unordered_map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

struct SpanStats {
  int64_t count = 0;
  int64_t items = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double NsPerItem() const { return items > 0 ? total_ns / items : 0.0; }
  double SelfNsPerItem() const { return items > 0 ? self_ns / items : 0.0; }
};

// Per-name totals over `spans`.
std::map<std::string, SpanStats> Aggregate(const std::vector<Span>& spans);

// One JSON object per line; false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
