#include "common/telemetry.h"

#include <algorithm>

#include "common/str_util.h"

namespace fairrank {

namespace {

/// Prometheus floats: 6 significant decimals is enough for millisecond
/// latencies in seconds and keeps /stats (milliseconds, 3 decimals) and
/// /metrics (seconds, 6 decimals) renderings of one quantile digit-for-digit
/// comparable.
std::string Num(double v) { return FormatDouble(v, 6); }

/// `# TYPE` words, indexed by MetricType.
constexpr const char* kTypeNames[] = {"counter", "gauge", "summary"};

/// One `name<suffix>{labels,quantile="q"} value` line; the braces appear
/// only when there is a label or a quantile.
void AppendSample(std::string* out, const std::string& name,
                  const char* suffix, const std::string& labels,
                  const char* quantile, const std::string& value) {
  out->append(name).append(suffix);
  if (!labels.empty() || quantile != nullptr) {
    out->push_back('{');
    out->append(labels);
    if (quantile != nullptr) {
      if (!labels.empty()) out->push_back(',');
      out->append("quantile=\"").append(quantile).push_back('"');
    }
    out->push_back('}');
  }
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

}  // namespace

MetricHistogram::MetricHistogram(double epsilon) : sketch_(epsilon) {}

void MetricHistogram::Observe(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  sketch_.Insert(seconds);
  sum_seconds_ += seconds;
  max_seconds_ = std::max(max_seconds_, seconds);
}

MetricHistogram::Snapshot MetricHistogram::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snapshot;
  snapshot.count = sketch_.count();
  snapshot.sum_seconds = sum_seconds_;
  snapshot.max_seconds = max_seconds_;
  if (snapshot.count > 0) {
    snapshot.p50_seconds = sketch_.Quantile(0.5).value_or(0.0);
    snapshot.p90_seconds = sketch_.Quantile(0.9).value_or(0.0);
    snapshot.p99_seconds = sketch_.Quantile(0.99).value_or(0.0);
  }
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Registration& MetricsRegistry::Register(
    const std::string& name, const std::string& help, MetricType type,
    const std::string& label) {
  auto [family, inserted] = families_.try_emplace(name);
  if (inserted) {
    family->second.type = type;
    family->second.help = help;
    family->second.label = label;
  }
  return family->second;
}

template <typename T, typename... Args>
T* MetricsRegistry::GetOrCreate(const std::string& name,
                                const std::string& help, MetricType type,
                                const MetricLabel& label, Args&&... args) {
  std::lock_guard<std::mutex> lock(mutex_);
  Registration& family = Register(name, help, type, label.name);
  auto child = family.children
                   .try_emplace(label.value, std::in_place_type<T>,
                                std::forward<Args>(args)...)
                   .first;
  return &std::get<T>(child->second);
}

void MetricsRegistry::AddFamily(const std::string& name,
                                const std::string& help, MetricType type,
                                const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  Register(name, help, type, label);
}

MetricCounter* MetricsRegistry::GetCounter(const std::string& name,
                                           const std::string& help,
                                           const MetricLabel& label) {
  return GetOrCreate<MetricCounter>(name, help, MetricType::kCounter, label);
}

MetricHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                               const std::string& help,
                                               const MetricLabel& label) {
  return GetOrCreate<MetricHistogram>(name, help, MetricType::kSummary,
                                      label);
}

void MetricsRegistry::AddCallback(const std::string& name,
                                  const std::string& help, MetricType type,
                                  const MetricLabel& label,
                                  std::function<int64_t()> read) {
  GetOrCreate<std::function<int64_t()>>(name, help, type, label,
                                        std::move(read));
}

const MetricsRegistry::Sample* MetricsRegistry::Family::Find(
    const std::string& label_value) const {
  for (const Sample& sample : samples) {
    if (sample.label_value == label_value) return &sample;
  }
  return nullptr;
}

std::map<std::string, MetricsRegistry::Family> MetricsRegistry::Snapshot()
    const {
  // Copy the structure under the lock, then read the values without it:
  // histograms take their own lock and callbacks call into their owners.
  // Children are never removed or reassigned, so the pointers stay valid.
  std::map<std::string, Family> out;
  std::vector<std::pair<Sample*, const Child*>> reads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, registration] : families_) {
      Family& family = out[name];
      family.type = registration.type;
      family.help = registration.help;
      family.label = registration.label;
      family.samples.resize(registration.children.size());
      Sample* sample = family.samples.data();
      for (const auto& [value, child] : registration.children) {
        sample->label_value = value;
        reads.emplace_back(sample++, &child);
      }
    }
  }
  for (const auto& [sample, child] : reads) {
    if (const auto* counter = std::get_if<MetricCounter>(child)) {
      sample->value = static_cast<int64_t>(counter->value());
    } else if (const auto* histogram = std::get_if<MetricHistogram>(child)) {
      sample->summary = histogram->TakeSnapshot();
    } else {
      sample->value = std::get<std::function<int64_t()>>(*child)();
    }
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::string out;
  for (const auto& [name, family] : Snapshot()) {
    out.append("# HELP ").append(name).append(" ").append(family.help);
    out.append("\n# TYPE ").append(name).append(" ");
    out.append(kTypeNames[static_cast<int>(family.type)]).append("\n");
    for (const Sample& sample : family.samples) {
      std::string labels;
      if (!family.label.empty()) {
        labels.append(family.label).append("=\"");
        labels.append(sample.label_value).push_back('"');
      }
      if (family.type != MetricType::kSummary) {
        AppendSample(&out, name, "", labels, nullptr,
                     std::to_string(sample.value));
        continue;
      }
      const MetricHistogram::Snapshot& s = sample.summary;
      if (s.count > 0) {
        AppendSample(&out, name, "", labels, "0.5", Num(s.p50_seconds));
        AppendSample(&out, name, "", labels, "0.9", Num(s.p90_seconds));
        AppendSample(&out, name, "", labels, "0.99", Num(s.p99_seconds));
      }
      AppendSample(&out, name, "_sum", labels, nullptr, Num(s.sum_seconds));
      AppendSample(&out, name, "_count", labels, nullptr,
                   std::to_string(s.count));
    }
  }
  return out;
}

bool MetricsRegistry::IsValidMetricName(const std::string& name) {
  static const char* kSuffixes[] = {"_total", "_seconds", "_bytes",
                                    "_count", "_ratio",   "_info"};
  const std::string prefix = "fairrank_";
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix)) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  if (name.find("__") != std::string::npos) return false;
  for (const char* suffix : kSuffixes) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace fairrank
