// In-memory span recorder for the traced run.
//
// The benchmark records spans only around its own calls into the
// library (collectives, file-system operations through TimingFileSystem,
// kernel replays); nothing inside the program is instrumented. Spans
// are kept in a preallocated buffer and written out as a Chrome
// trace-event file when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   // static string: layer.operation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t request = -1;  // collective ordinal that caused it; -1: none
  int track = 0;              // rank (or 0 for the main thread)
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  // Records a finished span; drops it (and counts the drop) when full.
  void Add(const Span& span);

  // The collective client 0 is currently inside (spans recorded from
  // server-side callbacks are attributed to it).
  void set_request(std::int64_t request) {
    request_.store(request, std::memory_order_relaxed);
  }
  std::int64_t request() const {
    return request_.load(std::memory_order_relaxed);
  }

  std::size_t size() const;
  std::int64_t dropped() const;

  // Chrome trace-event JSON ("X" events, microseconds since `origin_ns`).
  bool WriteChromeTrace(const std::string& path, std::int64_t origin_ns) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::size_t capacity_;
  std::int64_t dropped_ = 0;  // guarded by mu_
  std::atomic<std::int64_t> request_{-1};
};

// RAII span: records [construction, destruction) into `log` when non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int track)
      : log_(log), name_(name), track_(track),
        start_ns_(log != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    log_->Add(Span{name_, start_ns_, NowNs(), log_->request(), track_});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  int track_;
  std::int64_t start_ns_;
};

}  // namespace perfbench
