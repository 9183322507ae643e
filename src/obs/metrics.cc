#include "src/obs/metrics.h"

#include <cstdio>
#include <fstream>
#include <limits>

namespace volut {

namespace {

/// %.17g round-trips doubles exactly; integers print without an exponent.
std::string format_double(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus metric names admit [a-zA-Z0-9_:] only; path separators and
/// anything else exotic map to '_'.
std::string prometheus_name(std::string_view name) {
  std::string out = "volut_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lk(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lk(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  MutexLock lk(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .try_emplace(std::string(name),
                   std::vector<double>(bounds.begin(), bounds.end()))
      .first->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  MutexLock lk(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.value() : 0;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  MutexLock lk(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.value() : 0.0;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters_with_prefix(std::string_view prefix) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  MutexLock lk(mu_);
  for (const auto& [name, c] : counters_) {
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      out.emplace_back(name, c.value());
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  MutexLock lk(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::string MetricsRegistry::to_json() const {
  MutexLock lk(mu_);
  std::string out = "{\n  \"schema\": \"volut-metrics-v1\",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) +
           "\": " + std::to_string(c.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + format_double(g.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) out += ", ";
      out += format_double(h.bounds()[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.bucket_value(i));
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  MutexLock lk(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prometheus_name(name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", g.value());
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + buf + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      cumulative += h.bucket_value(i);
      char le[64];
      if (i < h.bounds().size()) {
        std::snprintf(le, sizeof(le), "%.17g", h.bounds()[i]);
      } else {
        std::snprintf(le, sizeof(le), "+Inf");
      }
      out += p + "_bucket{le=\"" + le +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += p + "_count " + std::to_string(cumulative) + "\n";
  }
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << to_json();
  if (!out) {
    std::fprintf(stderr, "MetricsRegistry: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace volut
