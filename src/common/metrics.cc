#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace confide::metrics {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<uint64_t> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBoundsNs();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(uint64_t value) {
  // First bucket whose (inclusive) upper bound holds the value; past-the-end
  // lands in the overflow bucket.
  size_t index =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::DefaultLatencyBoundsNs() {
  // 1-2-5 ladder from 1 µs to 10 s.
  std::vector<uint64_t> bounds;
  for (uint64_t decade = 1'000; decade <= 1'000'000'000; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(2 * decade);
    bounds.push_back(5 * decade);
  }
  bounds.push_back(10'000'000'000ull);
  return bounds;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (gauges_.count(std::string(name)) || histograms_.count(std::string(name))) {
    return nullptr;
  }
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(std::string(name)) || histograms_.count(std::string(name))) {
    return nullptr;
  }
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(std::string(name)) || gauges_.count(std::string(name))) {
    return nullptr;
  }
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.counts.reserve(data.bounds.size() + 1);
    for (size_t i = 0; i <= data.bounds.size(); ++i) {
      data.counts.push_back(histogram->bucket_count(i));
    }
    data.count = histogram->count();
    data.sum = histogram->sum();
    snapshot.histograms[name] = std::move(data);
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendU64Array(std::string* out, const std::vector<uint64_t>& values) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out->push_back(',');
    *out += std::to_string(values[i]);
  }
  out->push_back(']');
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(&out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(&out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, data] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(&out, name);
    out += ": {\"bounds\": ";
    AppendU64Array(&out, data.bounds);
    out += ", \"counts\": ";
    AppendU64Array(&out, data.counts);
    out += ", \"count\": " + std::to_string(data.count);
    out += ", \"sum\": " + std::to_string(data.sum);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON import — a minimal recursive-descent parser covering the subset the
// exporter emits (objects, arrays, integers, escaped strings).
// ---------------------------------------------------------------------------

namespace {

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Status::Corruption("metrics json: expected string");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out.push_back(c);
    }
    if (!Consume('"')) return Status::Corruption("metrics json: unterminated string");
    return out;
  }

  Result<int64_t> ParseInt() {
    SkipWs();
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Status::Corruption("metrics json: expected number");
    }
    uint64_t magnitude = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      magnitude = magnitude * 10 + uint64_t(text_[pos_++] - '0');
    }
    return negative ? -int64_t(magnitude) : int64_t(magnitude);
  }

  Result<uint64_t> ParseU64() {
    CONFIDE_ASSIGN_OR_RETURN(int64_t value, ParseInt());
    return uint64_t(value);
  }

  Result<std::vector<uint64_t>> ParseU64Array() {
    if (!Consume('[')) return Status::Corruption("metrics json: expected array");
    std::vector<uint64_t> values;
    if (Consume(']')) return values;
    do {
      CONFIDE_ASSIGN_OR_RETURN(uint64_t value, ParseU64());
      values.push_back(value);
    } while (Consume(','));
    if (!Consume(']')) return Status::Corruption("metrics json: unterminated array");
    return values;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Status ParseHistogramBody(JsonCursor* cur, MetricsSnapshot::HistogramData* out) {
  if (!cur->Consume('{')) return Status::Corruption("metrics json: expected object");
  if (cur->Consume('}')) return Status::OK();
  do {
    CONFIDE_ASSIGN_OR_RETURN(std::string field, cur->ParseString());
    if (!cur->Consume(':')) return Status::Corruption("metrics json: expected ':'");
    if (field == "bounds") {
      CONFIDE_ASSIGN_OR_RETURN(out->bounds, cur->ParseU64Array());
    } else if (field == "counts") {
      CONFIDE_ASSIGN_OR_RETURN(out->counts, cur->ParseU64Array());
    } else if (field == "count") {
      CONFIDE_ASSIGN_OR_RETURN(out->count, cur->ParseU64());
    } else if (field == "sum") {
      CONFIDE_ASSIGN_OR_RETURN(out->sum, cur->ParseU64());
    } else {
      return Status::Corruption("metrics json: unknown histogram field " + field);
    }
  } while (cur->Consume(','));
  if (!cur->Consume('}')) return Status::Corruption("metrics json: unterminated object");
  return Status::OK();
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::FromJson(std::string_view json) {
  JsonCursor cur(json);
  MetricsSnapshot snapshot;
  if (!cur.Consume('{')) return Status::Corruption("metrics json: expected '{'");
  if (cur.Consume('}')) return snapshot;
  do {
    CONFIDE_ASSIGN_OR_RETURN(std::string section, cur.ParseString());
    if (!cur.Consume(':')) return Status::Corruption("metrics json: expected ':'");
    if (!cur.Consume('{')) return Status::Corruption("metrics json: expected '{'");
    if (cur.Consume('}')) continue;
    do {
      CONFIDE_ASSIGN_OR_RETURN(std::string name, cur.ParseString());
      if (!cur.Consume(':')) return Status::Corruption("metrics json: expected ':'");
      if (section == "counters") {
        CONFIDE_ASSIGN_OR_RETURN(snapshot.counters[name], cur.ParseU64());
      } else if (section == "gauges") {
        CONFIDE_ASSIGN_OR_RETURN(snapshot.gauges[name], cur.ParseInt());
      } else if (section == "histograms") {
        CONFIDE_RETURN_NOT_OK(
            ParseHistogramBody(&cur, &snapshot.histograms[name]));
      } else {
        return Status::Corruption("metrics json: unknown section " + section);
      }
    } while (cur.Consume(','));
    if (!cur.Consume('}')) return Status::Corruption("metrics json: unterminated object");
  } while (cur.Consume(','));
  if (!cur.Consume('}')) return Status::Corruption("metrics json: expected '}'");
  return snapshot;
}

Status DumpSnapshot(const std::string& path) {
  const std::string json = MetricsRegistry::Global().Snapshot().ToJson() + "\n";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  const bool written = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  if (std::fclose(file) != 0 || !written) {
    return Status::Unavailable("cannot write " + path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ScopedLatencyTimer
// ---------------------------------------------------------------------------

namespace {
uint64_t WallNowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}
}  // namespace

ScopedLatencyTimer::ScopedLatencyTimer(Histogram* histogram)
    : histogram_(histogram), start_ns_(WallNowNs()) {}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (histogram_ != nullptr) histogram_->Observe(WallNowNs() - start_ns_);
}

}  // namespace confide::metrics
