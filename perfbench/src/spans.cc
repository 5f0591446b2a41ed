#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_serial{1};

}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kAdvance: return "phaser.advance";
    case SpanName::kSetBlocked: return "core.set_blocked";
    case SpanName::kClearBlocked: return "core.clear_blocked";
    case SpanName::kCheck: return "core.check";
    case SpanName::kSnapshot: return "core.snapshot";
    case SpanName::kPublish: return "dist.publish";
    case SpanName::kSiteCheck: return "dist.check";
    case SpanName::kPut: return "net.put";
    case SpanName::kRead: return "net.read";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t keep)
    : serial_(next_serial.fetch_add(1)), keep_(keep) {}

SpanLog::ThreadLog& SpanLog::local() {
  thread_local std::uint64_t cached_serial = 0;
  thread_local ThreadLog* cached = nullptr;
  if (cached_serial != serial_) {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadLog>());
    cached = threads_.back().get();
    cached->thread = static_cast<std::uint32_t>(threads_.size() - 1);
    cached_serial = serial_;
  }
  return *cached;
}

void SpanLog::open(SpanName name, std::uint64_t start_ns, std::uint64_t key) {
  ThreadLog& log = local();
  Span span;
  span.name = name;
  span.thread = log.thread;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = log.stack.empty() ? 0 : log.stack.back().id;
  span.key = key;
  span.start_ns = start_ns;
  log.stack.push_back(span);
}

Span SpanLog::close(std::uint64_t end_ns) {
  ThreadLog& log = local();
  if (log.stack.empty()) return Span{};
  Span span = log.stack.back();
  log.stack.pop_back();
  span.end_ns = end_ns;
  if (!log.stack.empty()) log.stack.back().child_ns += span.duration_ns();
  log.totals[static_cast<std::size_t>(span.name)].add(span);
  if (closed_.fetch_add(1, std::memory_order_relaxed) < keep_) {
    log.kept.push_back(span);
  }
  return span;
}

bool SpanLog::innermost_is(SpanName name) {
  ThreadLog& log = local();
  return !log.stack.empty() && log.stack.back().name == name;
}

SpanTotals SpanLog::totals(SpanName name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanTotals out;
  for (const auto& log : threads_) {
    out.merge(log->totals[static_cast<std::size_t>(name)]);
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& log : threads_) {
      spans.insert(spans.end(), log->kept.begin(), log->kept.end());
    }
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tthread\tname\tkey\tstart_ns\tend_ns\tself_ns\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu\t%llu\t%u\t%s\t%llu\t%llu\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 span_name(s.name), static_cast<unsigned long long>(s.key),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.self_ns()));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
