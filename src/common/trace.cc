#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace fairrank {

namespace {

/// Serial numbers shared by trace ids and request ids. The hex "boot" part
/// makes ids from different processes unlikely to collide without touching
/// any RNG.
std::atomic<uint64_t> g_trace_serial{0};
std::atomic<uint64_t> g_request_serial{0};

uint64_t BootNanos() {
  static const uint64_t boot = TraceNowNanos();
  return boot;
}

std::string HexId(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// Fibonacci-hash mix so consecutive serials produce visually distinct ids.
uint64_t Mix(uint64_t serial) {
  return (BootNanos() ^ (serial * 0x9e3779b97f4a7c15ull)) *
         0x2545f4914f6cdd1dull;
}

std::string FormatMillis(uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return std::string(buf);
}

}  // namespace

uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceContext::TraceContext(bool sampled, size_t max_spans)
    : sampled_(sampled),
      max_spans_(max_spans),
      trace_id_(HexId(Mix(g_trace_serial.fetch_add(
          1, std::memory_order_relaxed)))) {}

int64_t TraceContext::StartSpan(const char* name, int64_t parent) {
  if (!sampled_) return -1;
  const uint64_t now = TraceNowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return -1;
  }
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{id, parent, name, now, 0});
  return id;
}

void TraceContext::EndSpan(int64_t id) {
  if (!sampled_ || id < 0) return;
  const uint64_t now = TraceNowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<size_t>(id) >= spans_.size()) return;
  Span& span = spans_[static_cast<size_t>(id)];
  if (span.end_ns != 0) return;  // Already closed.
  span.end_ns = now;
  NamedTotal* total = TotalFor(span.name);
  ++total->count;
  total->total_ns += now - span.start_ns;
}

void TraceContext::AddEvent(const char* name, int64_t parent,
                            uint64_t duration_ns) {
  if (!sampled_) return;
  const uint64_t now = TraceNowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() < max_spans_) {
    const int64_t id = static_cast<int64_t>(spans_.size());
    spans_.push_back(
        Span{id, parent, name, now - std::min(duration_ns, now), now});
  } else {
    ++dropped_;
  }
  NamedTotal* total = TotalFor(name);
  ++total->count;
  total->total_ns += duration_ns;
}

void TraceContext::AddCappedSpan(const char* name, uint64_t duration_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  NamedTotal* total = TotalFor(name);
  ++total->count;
  total->total_ns += duration_ns;
}

TraceContext::NamedTotal* TraceContext::TotalFor(const char* name) {
  for (NamedTotal& total : totals_) {
    if (std::strcmp(total.name.c_str(), name) == 0) return &total;
  }
  totals_.push_back(NamedTotal{name, 0, 0});
  return &totals_.back();
}

size_t TraceContext::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

uint64_t TraceContext::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceContext::Span> TraceContext::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<TraceContext::NamedTotal> TraceContext::Totals() const {
  std::vector<NamedTotal> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = totals_;
  }
  std::sort(out.begin(), out.end(),
            [](const NamedTotal& a, const NamedTotal& b) {
              return a.name < b.name;
            });
  return out;
}

std::string TraceContext::FormatTree() const {
  std::vector<Span> spans;
  std::vector<NamedTotal> totals;
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
    totals = totals_;
    dropped = dropped_;
  }
  std::sort(totals.begin(), totals.end(),
            [](const NamedTotal& a, const NamedTotal& b) {
              return a.name < b.name;
            });

  std::string out = "trace " + trace_id_ + ": " +
                    std::to_string(spans.size()) + " spans";
  if (dropped > 0) out += " (" + std::to_string(dropped) + " dropped)";
  out += "\n";

  // Children of each span, in start (= id) order: span ids are assigned
  // sequentially, so iterating ids ascending within a parent bucket already
  // yields start order.
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size() &&
        static_cast<size_t>(parent) != i) {
      children[static_cast<size_t>(parent)].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  // Iterative DFS; stack entries are (span index, depth).
  std::vector<std::pair<size_t, int>> stack;
  for (size_t r = roots.size(); r > 0; --r) stack.push_back({roots[r - 1], 0});
  while (!stack.empty()) {
    auto [index, depth] = stack.back();
    stack.pop_back();
    const Span& span = spans[index];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += "- ";
    out += span.name;
    if (span.end_ns != 0) {
      out += ' ';
      out += FormatMillis(span.end_ns - span.start_ns);
    } else {
      out += " (open)";
    }
    out += "\n";
    const std::vector<size_t>& kids = children[index];
    for (size_t k = kids.size(); k > 0; --k) {
      stack.push_back({kids[k - 1], depth + 1});
    }
  }
  if (!totals.empty()) {
    out += "totals:\n";
    for (const NamedTotal& total : totals) {
      out += "  " + total.name + " n=" + std::to_string(total.count) +
             " total=" + FormatMillis(total.total_ns) + "\n";
    }
  }
  return out;
}

std::string NextRequestId() {
  static const std::string prefix =
      "req-" + HexId(Mix(0)).substr(0, 12) + "-";
  return prefix + std::to_string(g_request_serial.fetch_add(
                      1, std::memory_order_relaxed));
}

}  // namespace fairrank
