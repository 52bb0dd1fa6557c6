/// \file report.h
/// \brief What one harness command found: named metrics with units, the
/// sample count behind each timing, attempted/failed counts and any
/// correctness failure. Print() writes a human-readable table to stderr
/// and one JSON object as the last line of stdout (run.py merges it).

#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

class Report {
 public:
  /// \brief Records a metric. `samples` (0 = not a sampled timing) is
  /// printed beside it. A non-finite value is a correctness failure: the
  /// result must carry a number for every metric.
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " has no value (" + std::to_string(samples) + " samples)");
      value = 0;
    }
    metrics_.push_back(Metric{name, value, unit, samples});
  }

  void Fail(const std::string& message) { errors_.push_back(message); }
  bool correct() const { return errors_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Print() const {
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "  %-40s %14.4f %-10s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) std::fprintf(stderr, " (n=%llu)", (unsigned long long)m.samples);
      std::fputc('\n', stderr);
    }
    for (const std::string& e : errors_) std::fprintf(stderr, "  INCORRECT: %s\n", e.c_str());
    std::string json = "{\"correct\": " + std::string(correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      json += (i ? ", " : "") + Quote(errors_[i]);
    }
    json += "], \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i ? ", " : "") + Quote(metrics_[i].name) + ": {\"value\": " + value +
              ", \"unit\": " + Quote(metrics_[i].unit) + "}";
    }
    json += "}}";
    std::fflush(stderr);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
