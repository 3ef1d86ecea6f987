// Subsumed-query scan throughput: row-wise vs columnar cached-result layout.
//
// Reproduces the proxy's hot path for a subsumed query probing two
// overlapping cached entries (paper §3.2 case b): region selection over the
// cached tuples, duplicate-removing merge, and XML serialization of the
// response. The row pipeline materializes row objects at every stage; the
// columnar pipeline runs the batched membership kernel over pre-resolved
// coordinate arrays, merges by row hash, and serializes straight from
// column storage.
//
//   bench_columnar_scan [--layout=row|columnar|both] [--tuples=N]
//                       [--radius=R] [--reps=K] [--smoke] [--json[=path]]
//                       [--git-sha=SHA] [--encoding=auto|raw|decimal|shuffle]
//
// --tuples runs from 1 to 10,000,000, --radius (degrees) from 0 to 360 and
// --reps from 1 to 1000; any other value, or an unknown flag, exits 2 with
// the usage text.
// --smoke shrinks the workload for CI (also verifies the two layouts emit
// byte-identical XML). --json appends machine-readable records to
// BENCH_results.json (see docs/FORMATS.md), each naming --git-sha and the
// command line.
//
// The tier section freezes a photometric sky table (the paper's SDSS
// workload shape: sequential ids, small imaging-run ints, 1e-3-quantized
// magnitudes, a low-cardinality class column) through the storage layer and
// reports the compression ratio with the freeze and thaw costs. --encoding
// forces the double-column policy so individual encodings are measurable;
// the default auto policy is what the proxy runs.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/local_eval.h"
#include "geometry/hypersphere.h"
#include "sql/columnar.h"
#include "sql/table_xml.h"
#include "storage/segment.h"
#include "util/random.h"

namespace fnproxy {
namespace {

using core::ColumnarSlice;

const std::vector<std::string> kCoordinateColumns = {"ra", "dec"};

sql::Table MakeSkyTable(size_t rows, size_t first_id, util::Random* rng) {
  sql::Table table(sql::Schema({{"objID", sql::ValueType::kInt},
                                {"ra", sql::ValueType::kDouble},
                                {"dec", sql::ValueType::kDouble},
                                {"cx", sql::ValueType::kDouble},
                                {"cy", sql::ValueType::kDouble},
                                {"cz", sql::ValueType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    table.AddRow({sql::Value::Int(static_cast<int64_t>(first_id + i)),
                  sql::Value::Double(rng->NextDouble(130, 230)),
                  sql::Value::Double(rng->NextDouble(0, 60)),
                  sql::Value::Double(rng->NextDouble()),
                  sql::Value::Double(rng->NextDouble()),
                  sql::Value::Double(rng->NextDouble())});
  }
  return table;
}

/// The photometric catalog shape the proxy actually caches: identifiers and
/// imaging-run metadata (small ints), scan-hot coordinates (view-prepared),
/// magnitudes quantized to millimags by the pipeline, and a low-cardinality
/// classification string.
sql::Table MakePhotoTable(size_t rows, util::Random* rng) {
  sql::Table table(sql::Schema({{"objID", sql::ValueType::kInt},
                                {"run", sql::ValueType::kInt},
                                {"camcol", sql::ValueType::kInt},
                                {"field", sql::ValueType::kInt},
                                {"type", sql::ValueType::kInt},
                                {"flags", sql::ValueType::kInt},
                                {"ra", sql::ValueType::kDouble},
                                {"dec", sql::ValueType::kDouble},
                                {"u", sql::ValueType::kDouble},
                                {"g", sql::ValueType::kDouble},
                                {"r", sql::ValueType::kDouble},
                                {"i", sql::ValueType::kDouble},
                                {"z", sql::ValueType::kDouble},
                                {"class", sql::ValueType::kString}}));
  const char* kClasses[4] = {"STAR", "GALAXY", "QSO", "UNKNOWN"};
  auto mag = [&] {  // millimag-quantized magnitude, the survey's precision
    return std::round(rng->NextDouble(14.0, 25.0) * 1000.0) / 1000.0;
  };
  for (size_t i = 0; i < rows; ++i) {
    table.AddRow({sql::Value::Int(static_cast<int64_t>(1237650000000 + i)),
                  sql::Value::Int(752 + static_cast<int64_t>(i / 4096)),
                  sql::Value::Int(static_cast<int64_t>(
                      rng->NextDouble(1, 6.999))),
                  sql::Value::Int(static_cast<int64_t>(
                      rng->NextDouble(11, 800))),
                  sql::Value::Int(static_cast<int64_t>(
                      rng->NextDouble(0, 9.999))),
                  sql::Value::Int(static_cast<int64_t>(
                                      rng->NextDouble(0, 255.999))
                                  << 16),
                  sql::Value::Double(rng->NextDouble(130, 230)),
                  sql::Value::Double(rng->NextDouble(0, 60)),
                  sql::Value::Double(mag()), sql::Value::Double(mag()),
                  sql::Value::Double(mag()), sql::Value::Double(mag()),
                  sql::Value::Double(mag()),
                  sql::Value::String(kClasses[static_cast<size_t>(
                      rng->NextDouble(0, 3.999))])});
  }
  return table;
}

/// Appends `count` rows of `src` starting at `first`, duplicating cached
/// tuples across entries the way overlapping query regions do.
void CopyRows(const sql::Table& src, size_t first, size_t count,
              sql::Table* dst) {
  for (size_t i = 0; i < count; ++i) dst->AddRow(src.row(first + i));
}

std::string RunRowPipeline(const sql::Table& a, const sql::Table& b,
                           const geometry::Region& region) {
  auto sel_a = core::SelectInRegion(a, region, kCoordinateColumns);
  auto sel_b = core::SelectInRegion(b, region, kCoordinateColumns);
  if (!sel_a.ok() || !sel_b.ok()) {
    std::fprintf(stderr, "row SelectInRegion failed\n");
    std::exit(1);
  }
  auto merged = core::MergeDistinct({&sel_a->table, &sel_b->table});
  if (!merged.ok()) {
    std::fprintf(stderr, "row MergeDistinct failed\n");
    std::exit(1);
  }
  return sql::TableToXml(*merged);
}

std::string RunColumnarPipeline(const sql::ColumnarTable& a,
                                const sql::ColumnarTable& b,
                                const geometry::Region& region) {
  auto sel_a = core::SelectInRegion(a, region, kCoordinateColumns);
  auto sel_b = core::SelectInRegion(b, region, kCoordinateColumns);
  if (!sel_a.ok() || !sel_b.ok()) {
    std::fprintf(stderr, "columnar SelectInRegion failed\n");
    std::exit(1);
  }
  auto merged = core::MergeDistinctColumnar(
      {{&a, &sel_a->selection}, {&b, &sel_b->selection}});
  if (!merged.ok()) {
    std::fprintf(stderr, "columnar MergeDistinct failed\n");
    std::exit(1);
  }
  return sql::TableToXml(*merged);
}

template <typename Fn>
double BestMillis(size_t reps, const Fn& fn) {
  double best = 0;
  for (size_t i = 0; i < reps + 1; ++i) {  // +1 warmup, not recorded
    auto start = std::chrono::steady_clock::now();
    std::string xml = fn();
    auto stop = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (xml.empty()) std::exit(1);  // keep the result observable
    if (i > 0 && (best == 0 || ms < best)) best = ms;
  }
  return best;
}

constexpr char kUsage[] =
    "usage: bench_columnar_scan [--layout=row|columnar|both]"
    " [--tuples=1-10000000] [--radius=0-360] [--reps=1-1000] [--smoke]"
    " [--json[=path]] [--git-sha=SHA]"
    " [--encoding=auto|raw|decimal|shuffle]\n";
constexpr uint64_t kMaxTuples = 10'000'000;
constexpr uint64_t kMaxReps = 1000;

}  // namespace
}  // namespace fnproxy

int main(int argc, char** argv) {
  using namespace fnproxy;  // NOLINT

  bench::BenchJson json =
      bench::BenchJson::FromArgs(&argc, argv, "bench_columnar_scan");
  std::string layout = "both";
  size_t tuples = 100000;
  // A subsumed query's region is small relative to the cached result it
  // probes (the paper's trace shrinks radii over time); radius 8 selects
  // ~3% of the 100x60-degree cached sky.
  double radius = 8.0;
  size_t reps = 5;
  bool smoke = false;
  std::string encoding = "auto";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--layout=", 0) == 0) {
      layout = arg.substr(9);
    } else if (arg.rfind("--tuples=", 0) == 0) {
      tuples = bench::CountArg(kUsage, "--tuples", argv[i] + 9, 1,
                               kMaxTuples);
    } else if (arg.rfind("--radius=", 0) == 0) {
      radius = bench::RealArg(kUsage, "--radius", argv[i] + 9, 0.0, 360.0);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = bench::CountArg(kUsage, "--reps", argv[i] + 7, 1, kMaxReps);
    } else if (arg.rfind("--encoding=", 0) == 0) {
      encoding = arg.substr(11);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      bench::BadArgument(kUsage, argv[i], "unknown flag");
    }
  }
  storage::DoubleEncodingPolicy double_policy;
  if (encoding == "auto") {
    double_policy = storage::DoubleEncodingPolicy::kAuto;
  } else if (encoding == "raw") {
    double_policy = storage::DoubleEncodingPolicy::kRaw;
  } else if (encoding == "decimal") {
    double_policy = storage::DoubleEncodingPolicy::kDecimal;
  } else if (encoding == "shuffle") {
    double_policy = storage::DoubleEncodingPolicy::kShuffle;
  } else {
    std::fprintf(stderr, "--encoding must be auto, raw, decimal or shuffle\n");
    return 1;
  }
  if (smoke) {
    tuples = std::min<size_t>(tuples, 2000);
    reps = std::min<size_t>(reps, 2);
  }
  if (layout != "row" && layout != "columnar" && layout != "both") {
    std::fprintf(stderr, "--layout must be row, columnar or both\n");
    return 1;
  }

  // Two cached entries over the same sky: entry A holds the first 60% of the
  // tuples, entry B the last 50%, so 10% of the tuples are duplicated across
  // entries (regions overlapped). The probe region covers ~half the sky.
  util::Random rng(7);
  sql::Table all = MakeSkyTable(tuples, 0, &rng);
  sql::Table row_a(all.schema());
  sql::Table row_b(all.schema());
  CopyRows(all, 0, tuples * 6 / 10, &row_a);
  CopyRows(all, tuples / 2, tuples - tuples / 2, &row_b);
  geometry::Hypersphere region({180.0, 30.0}, radius);

  sql::ColumnarTable col_a(row_a);
  sql::ColumnarTable col_b(row_b);
  // The proxy prepares coordinate views at admission; mirror that here.
  for (size_t c : {size_t{1}, size_t{2}}) {
    (void)col_a.PrepareNumericView(c);
    (void)col_b.PrepareNumericView(c);
  }

  std::printf(
      "subsumed-query scan: %zu cached tuples (A=%zu B=%zu, 10%% dup), "
      "radius=%.1f, reps=%zu%s\n",
      tuples, row_a.num_rows(), row_b.num_rows(), radius, reps,
      smoke ? " [smoke]" : "");

  // The two layouts must produce byte-identical responses.
  std::string row_xml = RunRowPipeline(row_a, row_b, region);
  std::string col_xml = RunColumnarPipeline(col_a, col_b, region);
  if (row_xml != col_xml) {
    std::fprintf(stderr,
                 "FAIL: row and columnar pipelines disagree "
                 "(%zu vs %zu bytes)\n",
                 row_xml.size(), col_xml.size());
    return 1;
  }
  std::printf("layouts agree: %zu-byte response\n", row_xml.size());

  double row_ms = 0;
  double col_ms = 0;
  if (layout == "row" || layout == "both") {
    row_ms = BestMillis(
        reps, [&] { return RunRowPipeline(row_a, row_b, region); });
    double tuples_per_sec =
        static_cast<double>(row_a.num_rows() + row_b.num_rows()) /
        (row_ms / 1000.0);
    std::printf("  %-9s %10.2f ms   %12.0f tuples/s\n", "row", row_ms,
                tuples_per_sec);
    json.Record("subsumed_scan/row", row_ms, "ms",
                {{"tuples", static_cast<double>(tuples)},
                 {"tuples_per_sec", tuples_per_sec}});
  }
  if (layout == "columnar" || layout == "both") {
    col_ms = BestMillis(
        reps, [&] { return RunColumnarPipeline(col_a, col_b, region); });
    double tuples_per_sec =
        static_cast<double>(row_a.num_rows() + row_b.num_rows()) /
        (col_ms / 1000.0);
    std::printf("  %-9s %10.2f ms   %12.0f tuples/s\n", "columnar", col_ms,
                tuples_per_sec);
    json.Record("subsumed_scan/columnar", col_ms, "ms",
                {{"tuples", static_cast<double>(tuples)},
                 {"tuples_per_sec", tuples_per_sec}});
  }
  if (layout == "both" && col_ms > 0) {
    double speedup = row_ms / col_ms;
    std::printf("  speedup: %.2fx (columnar over row)\n", speedup);
    json.Record("subsumed_scan/speedup", speedup, "x",
                {{"tuples", static_cast<double>(tuples)}});
  }
  // Tier section: freeze the photometric catalog through the storage layer,
  // verify losslessness, and measure compression and the freeze and thaw
  // costs (docs/STORAGE.md). The ra/dec views are prepared as the proxy
  // prepares them at admission; the thaw prepares them again.
  {
    util::Random photo_rng(11);
    sql::Table photo_rows = MakePhotoTable(tuples, &photo_rng);
    sql::ColumnarTable photo(photo_rows);
    const size_t kRa = 6;
    const size_t kDec = 7;
    (void)photo.PrepareNumericView(kRa);
    (void)photo.PrepareNumericView(kDec);

    storage::FreezeOptions freeze_options;
    freeze_options.double_policy = double_policy;

    auto time_ms = [&](auto&& fn) {
      double best = 0;
      for (size_t rep = 0; rep < reps + 1; ++rep) {  // +1 warmup
        auto start = std::chrono::steady_clock::now();
        fn();
        auto stop = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (rep > 0 && (best == 0 || ms < best)) best = ms;
      }
      return best;
    };

    storage::FrozenSegment segment =
        storage::FrozenSegment::Freeze(photo, freeze_options);
    double freeze_ms = time_ms([&] {
      storage::FrozenSegment s =
          storage::FrozenSegment::Freeze(photo, freeze_options);
      if (s.num_rows() != photo.num_rows()) std::exit(1);
    });
    sql::ColumnarTable thawed = segment.Thaw();
    double thaw_ms = time_ms([&] {
      sql::ColumnarTable t = segment.Thaw();
      if (t.num_rows() != photo.num_rows()) std::exit(1);
    });
    // Freezing must be lossless: the thawed table serializes
    // byte-identically, so responses cannot observe an entry's tier.
    if (sql::TableToXml(thawed) != sql::TableToXml(photo)) {
      std::fprintf(stderr, "FAIL: thawed table differs from source\n");
      return 1;
    }
    const double raw_bytes = static_cast<double>(photo.ByteSize());
    const double encoded_bytes = static_cast<double>(segment.ByteSize());
    const double ratio = raw_bytes / encoded_bytes;
    std::printf(
        "  freeze (%s): %zu rows x %zu cols, %.1f KB -> %.1f KB (%.2fx), "
        "freeze %.2f ms, thaw %.2f ms\n",
        encoding.c_str(), photo.num_rows(), photo.num_columns(),
        raw_bytes / 1024.0, encoded_bytes / 1024.0, ratio, freeze_ms,
        thaw_ms);
    const sql::Schema schema = segment.schema();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      std::printf("    col %-8s %s\n", schema.column(c).name.c_str(),
                  storage::ColumnEncodingName(segment.encoding(c)));
    }
    json.Record("columnar_scan/compression_ratio", ratio, "x",
                {{"tuples", static_cast<double>(tuples)},
                 {"raw_bytes", raw_bytes},
                 {"encoded_bytes", encoded_bytes}});
    json.Record("columnar_scan/freeze_ms", freeze_ms, "ms",
                {{"tuples", static_cast<double>(tuples)}});
    json.Record("columnar_scan/thaw_ms", thaw_ms, "ms",
                {{"tuples", static_cast<double>(tuples)}});
  }
  if (json.enabled()) {
    std::printf("JSON records appended to %s\n", json.path().c_str());
  }
  return 0;
}
