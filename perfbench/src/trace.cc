#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "stats.h"

namespace perfbench {

const char* Intern(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  return names.insert(name).first->c_str();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(uint32_t run_id) {
  run_id_.store(run_id, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

Tracer::ThreadBuffer* Tracer::Buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
  }
  return buffer;
}

std::vector<Span> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->done.begin(), buffer->done.end());
    buffer->done.clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int64_t items) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) {
    return;
  }
  buffer_ = tracer.Buffer();
  span_.name = name;
  span_.items = items;
  span_.run = tracer.run_id();
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buffer_->open.empty() ? 0 : buffer_->open.back();
  buffer_->open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) {
    return;
  }
  span_.end_ns = NowNs();
  buffer_->open.pop_back();
  buffer_->done.push_back(span_);
}

std::unordered_map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
  }
  for (const Span& s : spans) {
    auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) {
      continue;
    }
    const Span& p = *parent->second;
    const int64_t begin = std::max(s.start_ns, p.start_ns);
    const int64_t end = std::min(s.end_ns, p.end_ns);
    if (end > begin) {
      children[p.id].emplace_back(begin, end);
    }
  }
  std::unordered_map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t run_begin = intervals.front().first;
      int64_t run_end = intervals.front().second;
      for (const auto& [begin, end] : intervals) {
        if (begin > run_end) {
          covered += run_end - run_begin;
          run_begin = begin;
        }
        run_end = std::max(run_end, end);
      }
      covered += run_end - run_begin;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanStats> Aggregate(const std::vector<Span>& spans) {
  const std::unordered_map<uint64_t, int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    SpanStats& st = out[s.name];
    ++st.count;
    st.items += s.items;
    st.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    st.self_ns += static_cast<double>(self.at(s.id));
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"id\":%llu,"
                 "\"parent\":%llu,\"run\":%u,\"items\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.run,
                 static_cast<long long>(s.items));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
