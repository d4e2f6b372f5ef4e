#include "span_log.h"

#include <cstdio>

namespace perfbench {

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::int64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               std::int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld}}%s\n",
                 s.name, s.track,
                 static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\"dropped\":%lld}\n", static_cast<long long>(dropped_));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
