#ifndef FNPROXY_BENCH_BENCH_COMMON_H_
#define FNPROXY_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/proxy.h"
#include "util/string_util.h"
#include "workload/experiment.h"

namespace fnproxy::bench {

/// Machine-readable bench output (docs/FORMATS.md). Benches accept
/// `--json` / `--json=<path>`; when present, every recorded measurement is
/// appended to the file (default BENCH_results.json) as one JSON object per
/// line, so several bench binaries in a CI step can share one file:
///
///   {"bench":"bench_columnar_scan","name":"scan_100k/columnar",
///    "value":12.5,"unit":"ms","tuples":100000,"git_sha":"<sha>",
///    "command":"./build/bench/bench_columnar_scan --smoke --json"}
///
/// `--git-sha=<sha>` names the commit the binary was built from ("unknown"
/// without it); every record carries it and the command line that ran.
///
/// Without the flag, Record() is a no-op and benches print their usual
/// human-readable tables only.
class BenchJson {
 public:
  /// Scans argv for `--json[=path]` and `--git-sha=<sha>` and strips them
  /// so downstream flag parsers (google-benchmark rejects unknown flags)
  /// never see them. The command recorded is argv without `--git-sha=`.
  static BenchJson FromArgs(int* argc, char** argv, std::string bench) {
    BenchJson json;
    json.bench_ = std::move(bench);
    json.command_ = argv[0];
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--git-sha=", 0) == 0) {
        json.git_sha_ = arg.substr(10);
        continue;
      }
      json.command_ += " " + arg;
      if (arg == "--json") {
        json.enabled_ = true;
      } else if (arg.rfind("--json=", 0) == 0) {
        json.enabled_ = true;
        json.path_ = arg.substr(7);
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    return json;
  }

  bool enabled() const { return enabled_; }
  const std::string& path() const { return path_; }

  /// Appends one JSON-lines record. `extras` are numeric fields merged into
  /// the object (e.g. {"tuples", 100000}).
  void Record(const std::string& name, double value, const std::string& unit,
              const std::vector<std::pair<std::string, double>>& extras = {})
      const {
    if (!enabled_) return;
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot open %s for append\n",
                   path_.c_str());
      return;
    }
    std::string line = "{\"bench\":\"";
    AppendJsonEscaped(&line, bench_);
    line += "\",\"name\":\"";
    AppendJsonEscaped(&line, name);
    line += "\",\"value\":";
    AppendJsonNumber(&line, value);
    line += ",\"unit\":\"";
    AppendJsonEscaped(&line, unit);
    line += "\"";
    for (const auto& [key, number] : extras) {
      line += ",\"";
      AppendJsonEscaped(&line, key);
      line += "\":";
      AppendJsonNumber(&line, number);
    }
    line += ",\"git_sha\":\"";
    AppendJsonEscaped(&line, git_sha_);
    line += "\",\"command\":\"";
    AppendJsonEscaped(&line, command_);
    line += "\"}\n";
    std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
  }

 private:
  static void AppendJsonEscaped(std::string* out, const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out->push_back('\\');
        out->push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      } else {
        out->push_back(c);
      }
    }
  }

  /// JSON has no NaN/Inf literals; clamp them to null.
  static void AppendJsonNumber(std::string* out, double value) {
    if (value != value || value > 1.7976931348623157e308 ||
        value < -1.7976931348623157e308) {
      out->append("null");
    } else {
      out->append(util::FormatDouble(value));
    }
  }

  bool enabled_ = false;
  std::string bench_;
  std::string path_ = "BENCH_results.json";
  std::string git_sha_ = "unknown";
  std::string command_;
};

/// Client threads and queries a sweep may ask for on the command line: the
/// clients match run_trace's bound, the queries trace_tool's.
inline constexpr uint64_t kMaxClients = 256;
inline constexpr uint64_t kMaxQueries = 10'000'000;

/// Says which argument `why` rejects, prints `usage` and exits 2.
[[noreturn]] inline void BadArgument(const char* usage, const char* what,
                                     const std::string& why) {
  std::fprintf(stderr, "%s: %s\n%s", what, why.c_str(), usage);
  std::exit(2);
}

/// Command-line count `text` (named `what`): a plain decimal in [lo, hi].
/// A sign, a suffix or a value past 2^64 - 1 or the range is rejected
/// through BadArgument, never wrapped or cut short.
inline uint64_t CountArg(const char* usage, const char* what,
                         const char* text, uint64_t lo, uint64_t hi) {
  const util::StatusOr<uint64_t> value =
      util::ParseUint64InRange(text, lo, hi);
  if (!value.ok()) BadArgument(usage, what, value.status().message());
  return *value;
}

/// Command-line number `text` (named `what`): a finite decimal in
/// [lo, hi], rejected through BadArgument otherwise.
inline double RealArg(const char* usage, const char* what, const char* text,
                      double lo, double hi) {
  const util::StatusOr<double> value = util::ParseDouble(text);
  if (!value.ok() || !(*value >= lo && *value <= hi)) {
    BadArgument(usage, what,
                std::string("expected a number from ") +
                    util::FormatDouble(lo) + " to " + util::FormatDouble(hi) +
                    ", got '" + text + "'");
  }
  return *value;
}

/// The paper-scale experiment: 11,323-query Radial trace over the synthetic
/// SkyServer. Shared by the Table 1 / Figure 5 / Figure 6 benches so their
/// numbers are directly comparable. `num_queries` can be reduced for the
/// parameter-sweep ablations.
inline workload::SkyExperiment::Options PaperOptions(
    size_t num_queries = 11323) {
  workload::SkyExperiment::Options options;
  options.trace.num_queries = num_queries;
  return options;
}

inline core::ProxyConfig MakeProxyConfig(core::CachingMode mode,
                                         bool rtree = false,
                                         size_t max_bytes = 0) {
  core::ProxyConfig config;
  config.mode = mode;
  config.use_rtree_description = rtree;
  config.max_cache_bytes = max_bytes;
  return config;
}

/// The paper's set-up (§4.1) around one proxy configured by `config`: one
/// client, one proxy, a healthy origin.
inline workload::ReplayOptions PaperReplay(const core::ProxyConfig& config) {
  workload::ReplayOptions options;
  options.tier.proxy = config;
  return options;
}

/// Prints the achieved relationship mix of the trace (compare with the
/// paper's 17% exact / 34% containment / ~9% overlap).
inline void PrintTraceMix(const workload::Trace& trace) {
  using geometry::RegionRelation;
  std::printf(
      "Trace: %zu queries | intended mix: exact %.1f%%  containment %.1f%%  "
      "region-containment %.1f%%  overlap %.1f%%  disjoint %.1f%%\n",
      trace.queries.size(),
      100 * trace.IntendedFraction(RegionRelation::kEqual),
      100 * trace.IntendedFraction(RegionRelation::kContainedBy),
      100 * trace.IntendedFraction(RegionRelation::kContains),
      100 * trace.IntendedFraction(RegionRelation::kOverlap),
      100 * trace.IntendedFraction(RegionRelation::kDisjoint));
}

/// One row of a response-time/efficiency report.
struct RunSummary {
  std::string label;
  double avg_response_ms_first_10000 = 0;
  double avg_response_ms_all = 0;
  double avg_cache_efficiency = 0;
  uint64_t origin_requests = 0;
  uint64_t origin_mb_received = 0;
  size_t cache_entries_final = 0;
};

inline RunSummary Summarize(const std::string& label,
                            const workload::ReplayResult& result) {
  RunSummary summary;
  summary.label = label;
  summary.avg_response_ms_first_10000 =
      result.rbe.AverageResponseMillis(10000);
  summary.avg_response_ms_all = result.rbe.AverageResponseMillis();
  summary.avg_cache_efficiency = result.proxy_stats.AverageCacheEfficiency();
  summary.origin_requests = result.origin_requests;
  summary.origin_mb_received = result.origin_bytes_received / (1024 * 1024);
  summary.cache_entries_final = result.cache_entries_final;
  return summary;
}

inline void PrintSummaryTable(const std::vector<RunSummary>& rows) {
  std::printf("%-28s %14s %12s %12s %10s %10s %9s\n", "config",
              "avg ms (10k)", "avg ms (all)", "cache eff.", "origin rq",
              "origin MB", "entries");
  for (const RunSummary& row : rows) {
    std::printf("%-28s %14.0f %12.0f %12.3f %10lu %10lu %9zu\n",
                row.label.c_str(), row.avg_response_ms_first_10000,
                row.avg_response_ms_all, row.avg_cache_efficiency,
                static_cast<unsigned long>(row.origin_requests),
                static_cast<unsigned long>(row.origin_mb_received),
                row.cache_entries_final);
  }
}

/// Per-relationship-status response-time breakdown (diagnostic aid).
inline void PrintStatusBreakdown(const workload::ReplayResult& result) {
  using geometry::RegionRelation;
  const auto& records = result.proxy_stats.records;
  const auto& times = result.rbe.queries;
  for (RegionRelation status :
       {RegionRelation::kEqual, RegionRelation::kContainedBy,
        RegionRelation::kContains, RegionRelation::kOverlap,
        RegionRelation::kDisjoint}) {
    double sum = 0;
    size_t count = 0;
    for (size_t i = 0; i < records.size() && i < times.size(); ++i) {
      if (records[i].status == status && records[i].handled_by_template) {
        sum += static_cast<double>(times[i].response_micros);
        ++count;
      }
    }
    std::printf("    %-14s n=%6zu  avg=%8.0f ms\n",
                geometry::RegionRelationName(status), count,
                count ? sum / static_cast<double>(count) / 1000.0 : 0.0);
  }
}

}  // namespace fnproxy::bench

#endif  // FNPROXY_BENCH_BENCH_COMMON_H_
