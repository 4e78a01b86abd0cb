#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>

#include "fairness/report.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::ofstream out(path);
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
        << fairrank::JsonEscape(s.name) << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

const std::vector<std::string>& Layers() {
  static const std::vector<std::string> layers = {
      "data",           "marketplace",       "fairness.evaluator",
      "fairness.search", "fairness.report",  "fairness.suite",
      "fairness.aggregate", "server"};
  return layers;
}

namespace {

/// The layer a span name belongs to (longest matching prefix), or "" for
/// the benchmark's own structural spans.
std::string LayerOf(const std::string& name) {
  std::string best;
  for (const std::string& layer : Layers()) {
    const bool match =
        name == layer || (name.size() > layer.size() &&
                          name.compare(0, layer.size(), layer) == 0 &&
                          name[layer.size()] == '.');
    if (match && layer.size() > best.size()) best = layer;
  }
  return best;
}

double Seconds(const Span& s) { return (s.end_ns - s.start_ns) * 1e-9; }

}  // namespace

std::map<std::string, LayerTime> SummarizeLayers(
    const std::vector<Span>& spans) {
  std::map<std::string, LayerTime> out;
  for (const std::string& layer : Layers()) out[layer] = LayerTime();
  std::vector<std::string> layer_of(spans.size());
  std::vector<double> child_seconds(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    layer_of[i] = LayerOf(spans[i].name);
    if (spans[i].parent >= 0) {
      child_seconds[static_cast<size_t>(spans[i].parent)] += Seconds(spans[i]);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (layer_of[i].empty()) continue;
    LayerTime& t = out[layer_of[i]];
    t.self_s += Seconds(spans[i]) - child_seconds[i];
    // Busy time counts a span only when no ancestor is of the same layer,
    // so nested calls within one layer are not counted twice.
    bool nested = false;
    for (int p = spans[i].parent; p >= 0 && !nested;
         p = spans[static_cast<size_t>(p)].parent) {
      nested = layer_of[static_cast<size_t>(p)] == layer_of[i];
    }
    if (!nested) t.busy_s += Seconds(spans[i]);
  }
  return out;
}

double SpanSeconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += Seconds(s);
  }
  return total;
}

double CoveredSeconds(const std::vector<Span>& spans) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const Span& s : spans) {
    if (!LayerOf(s.name).empty()) intervals.emplace_back(s.start_ns, s.end_ns);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = INT64_MIN;
  for (const auto& [start, end] : intervals) {
    if (end <= reach) continue;
    covered += end - std::max(start, reach);
    reach = end;
  }
  return covered * 1e-9;
}

}  // namespace perfbench
