#include "obs/metrics.h"

#include <cmath>

#include "util/string_util.h"

namespace fnproxy::obs {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
void AppendEscapedLabelValue(std::string* out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

/// Renders `{k="v",...}` with `extra` appended last (used for `le`), or
/// nothing when both are empty.
void AppendLabels(std::string* out, const Labels& labels,
                  const std::string& extra_key = {},
                  const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(key);
    out->append("=\"");
    AppendEscapedLabelValue(out, value);
    out->push_back('"');
  }
  if (!extra_key.empty()) {
    if (!first) out->push_back(',');
    out->append(extra_key);
    out->append("=\"");
    AppendEscapedLabelValue(out, extra_value);
    out->push_back('"');
  }
  out->push_back('}');
}

void AppendValue(std::string* out, double value) {
  if (std::isnan(value) || std::isinf(value)) {
    out->append(value > 0 ? "+Inf" : std::isnan(value) ? "NaN" : "-Inf");
    return;
  }
  // Integral values (the common case for counters surfaced as callbacks)
  // render without a decimal point.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    util::AppendInt64(*out, static_cast<int64_t>(value));
  } else {
    out->append(util::FormatDouble(value));
  }
}

}  // namespace

int64_t Histogram::Snapshot::QuantileUpperBoundMicros(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumFiniteBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return BucketUpperBoundMicros(i);
  }
  // Overflow bucket: one doubling past the largest finite bound signals
  // "beyond the scale" without pretending precision.
  return BucketUpperBoundMicros(kNumFiniteBuckets);
}

MetricsRegistry::Instrument* MetricsRegistry::Add(Instrument instrument) {
  auto owned = std::make_unique<Instrument>(std::move(instrument));
  Instrument* raw = owned.get();
  util::MutexLock lock(mu_);
  instruments_.push_back(std::move(owned));
  return raw;
}

Counter* MetricsRegistry::AddCounter(std::string name, std::string help,
                                     Labels labels) {
  Instrument instrument;
  instrument.kind = Kind::kCounter;
  instrument.name = std::move(name);
  instrument.help = std::move(help);
  instrument.labels = std::move(labels);
  instrument.counter = std::make_unique<Counter>();
  return Add(std::move(instrument))->counter.get();
}

Gauge* MetricsRegistry::AddGauge(std::string name, std::string help,
                                 Labels labels) {
  Instrument instrument;
  instrument.kind = Kind::kGauge;
  instrument.name = std::move(name);
  instrument.help = std::move(help);
  instrument.labels = std::move(labels);
  instrument.gauge = std::make_unique<Gauge>();
  return Add(std::move(instrument))->gauge.get();
}

Histogram* MetricsRegistry::AddHistogram(std::string name, std::string help,
                                         Labels labels) {
  Instrument instrument;
  instrument.kind = Kind::kHistogram;
  instrument.name = std::move(name);
  instrument.help = std::move(help);
  instrument.labels = std::move(labels);
  instrument.histogram = std::make_unique<Histogram>();
  return Add(std::move(instrument))->histogram.get();
}

void MetricsRegistry::AddCallback(std::string name, std::string help,
                                  bool is_counter, Labels labels,
                                  std::function<double()> callback) {
  Instrument instrument;
  instrument.kind = Kind::kCallback;
  instrument.name = std::move(name);
  instrument.help = std::move(help);
  instrument.labels = std::move(labels);
  instrument.callback_is_counter = is_counter;
  instrument.callback = std::move(callback);
  Add(std::move(instrument));
}

std::string MetricsRegistry::RenderPrometheus() const {
  util::MutexLock lock(mu_);
  std::string out;
  out.reserve(256 + instruments_.size() * 160);
  const std::string* previous_name = nullptr;
  for (const auto& instrument : instruments_) {
    // One HELP/TYPE header per family; instruments of one family are
    // registered contiguously, so a name change starts a new family.
    if (previous_name == nullptr || *previous_name != instrument->name) {
      out.append("# HELP ");
      out.append(instrument->name);
      out.push_back(' ');
      out.append(instrument->help);
      out.append("\n# TYPE ");
      out.append(instrument->name);
      out.push_back(' ');
      switch (instrument->kind) {
        case Kind::kCounter:
          out.append("counter");
          break;
        case Kind::kGauge:
          out.append("gauge");
          break;
        case Kind::kHistogram:
          out.append("histogram");
          break;
        case Kind::kCallback:
          out.append(instrument->callback_is_counter ? "counter" : "gauge");
          break;
      }
      out.push_back('\n');
      previous_name = &instrument->name;
    }
    switch (instrument->kind) {
      case Kind::kCounter: {
        out.append(instrument->name);
        AppendLabels(&out, instrument->labels);
        out.push_back(' ');
        util::AppendInt64(out,
                          static_cast<int64_t>(instrument->counter->Value()));
        out.push_back('\n');
        break;
      }
      case Kind::kGauge: {
        out.append(instrument->name);
        AppendLabels(&out, instrument->labels);
        out.push_back(' ');
        AppendValue(&out, instrument->gauge->Value());
        out.push_back('\n');
        break;
      }
      case Kind::kCallback: {
        out.append(instrument->name);
        AppendLabels(&out, instrument->labels);
        out.push_back(' ');
        AppendValue(&out, instrument->callback());
        out.push_back('\n');
        break;
      }
      case Kind::kHistogram: {
        Histogram::Snapshot snap = instrument->histogram->snapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          cumulative += snap.buckets[i];
          out.append(instrument->name);
          out.append("_bucket");
          std::string le;
          if (i < Histogram::kNumFiniteBuckets) {
            util::AppendInt64(le, Histogram::BucketUpperBoundMicros(i));
          } else {
            le = "+Inf";
          }
          AppendLabels(&out, instrument->labels, "le", le);
          out.push_back(' ');
          util::AppendInt64(out, static_cast<int64_t>(cumulative));
          out.push_back('\n');
        }
        out.append(instrument->name);
        out.append("_sum");
        AppendLabels(&out, instrument->labels);
        out.push_back(' ');
        util::AppendInt64(out, snap.sum_micros);
        out.push_back('\n');
        out.append(instrument->name);
        out.append("_count");
        AppendLabels(&out, instrument->labels);
        out.push_back(' ');
        util::AppendInt64(out, static_cast<int64_t>(snap.count));
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, Counter*>> MetricsRegistry::CounterSeries()
    const {
  util::MutexLock lock(mu_);
  std::vector<std::pair<std::string, Counter*>> out;
  for (const auto& instrument : instruments_) {
    if (instrument->kind != Kind::kCounter) continue;
    std::string series = instrument->name;
    AppendLabels(&series, instrument->labels);
    out.emplace_back(std::move(series), instrument->counter.get());
  }
  return out;
}

std::vector<HistogramExport> MetricsRegistry::ExportHistograms(
    std::string_view name) const {
  util::MutexLock lock(mu_);
  std::vector<HistogramExport> out;
  for (const auto& instrument : instruments_) {
    if (instrument->kind != Kind::kHistogram) continue;
    if (!name.empty() && instrument->name != name) continue;
    out.push_back(HistogramExport{instrument->name, instrument->labels,
                                  instrument->histogram->snapshot()});
  }
  return out;
}

std::vector<PhaseBreakdown> PhaseBreakdownFromRegistry(
    const MetricsRegistry& registry, std::string_view family,
    std::string_view label_key) {
  std::vector<PhaseBreakdown> out;
  for (const HistogramExport& exported : registry.ExportHistograms(family)) {
    PhaseBreakdown row;
    row.phase = exported.name;
    for (const auto& [key, value] : exported.labels) {
      if (key == label_key) {
        row.phase = value;
        break;
      }
    }
    row.count = exported.snapshot.count;
    row.total_micros = exported.snapshot.sum_micros;
    row.p50_micros = exported.snapshot.QuantileUpperBoundMicros(0.50);
    row.p95_micros = exported.snapshot.QuantileUpperBoundMicros(0.95);
    row.p99_micros = exported.snapshot.QuantileUpperBoundMicros(0.99);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace fnproxy::obs
