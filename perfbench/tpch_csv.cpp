// Workload tpch_csv: CSV -> BCNF on the TPC-H-like universal relation.
// Each op pair runs the CLI's default driver (CsvReader::ReadFile +
// Normalizer::Normalize) and the sharded driver (Normalizer::
// NormalizeCsvFile over row shards). Discovery does most of the work here;
// it is also the only workload on the shard merge.
#include <optional>
#include <string>

#include "common/stopwatch.hpp"
#include "datagen/tpch_like.hpp"
#include "harness.hpp"
#include "normalize/normalizer.hpp"
#include "relation/csv.hpp"

namespace perfbench {
namespace {

using normalize::MetricsRegistry;
using normalize::NormalizationResult;
using normalize::Result;
using normalize::ScopedSpan;
using normalize::Status;
using normalize::Stopwatch;
using normalize::Tracer;

constexpr double kScale = 0.25;  // 875 rows x 53 columns
constexpr int kMaxLhs = 2;
constexpr int kThreads = 1;      // discovery, shard fan-out and closure
constexpr size_t kShards = 4;
constexpr int kSetups = 5;
// Pairs per measured phase, at least. tpch_csv has the least set-up of the
// three workloads, so it spends on samples the run time the others spend on
// set-up: 30 pairs, about 28 s.
constexpr size_t kMinOps = 30;
constexpr double kNominalPairS = 0.9;  // one plain plus one sharded op

struct Input {
  std::string path;
  size_t rows = 0;
  int columns = 0;
  /// The plain driver's schema from the warm-up op: every later op of
  /// either driver must reproduce it.
  std::string schema;
  size_t fds = 0;
  size_t relations = 0;
};

normalize::NormalizerOptions Options(size_t shard_rows,
                                     MetricsRegistry* metrics) {
  normalize::NormalizerOptions options;
  options.discovery.max_lhs_size = kMaxLhs;
  options.discovery.threads = kThreads;
  options.discovery.metrics = metrics;
  options.closure_threads = kThreads;
  options.shard.threads = kThreads;
  options.shard.shard_rows = shard_rows;
  return options;
}

size_t ShardRows(const Input& input) {
  return (input.rows + kShards - 1) / kShards;
}

// The CLI's default driver. Fills `result` and the per-call timings.
Status PlainOp(const Input& input, Tracer* tracer, MetricsRegistry* metrics,
               double* read_s, std::optional<NormalizationResult>* result) {
  ScopedSpan op(tracer, "op.normalize_csv");
  Stopwatch read_watch;
  Result<normalize::RelationData> data = [&] {
    ScopedSpan call(tracer, "CsvReader::ReadFile");
    return normalize::CsvReader().ReadFile(input.path);
  }();
  *read_s = read_watch.ElapsedSeconds();
  if (!data.ok()) return data.status();
  normalize::Normalizer normalizer(Options(0, metrics));
  Result<NormalizationResult> normalized = [&] {
    ScopedSpan call(tracer, "Normalizer::Normalize");
    return normalizer.Normalize(*data);
  }();
  if (!normalized.ok()) return normalized.status();
  result->emplace(std::move(normalized).value());
  return Status::OK();
}

Status ShardedOp(const Input& input, Tracer* tracer, MetricsRegistry* metrics,
                 std::optional<NormalizationResult>* result) {
  ScopedSpan op(tracer, "op.normalize_csv_sharded");
  normalize::Normalizer normalizer(Options(ShardRows(input), metrics));
  Result<NormalizationResult> normalized = [&] {
    ScopedSpan call(tracer, "Normalizer::NormalizeCsvFile");
    return normalizer.NormalizeCsvFile(input.path);
  }();
  if (!normalized.ok()) return normalized.status();
  result->emplace(std::move(normalized).value());
  return Status::OK();
}

// Generates the relation, writes it as CSV, and runs the warm-up op whose
// schema becomes the reference.
Status Prepare(const Config& config, Input* input) {
  normalize::RelationData universal = ShuffleRows(
      normalize::GenerateTpchLike(normalize::TpchScale{}.Scaled(kScale))
          .universal,
      config.seed);
  input->path = config.work_dir + "/tpch_universal.csv";
  input->rows = universal.num_rows();
  input->columns = universal.num_columns();
  if (Status written = normalize::CsvWriter().WriteFile(universal, input->path);
      !written.ok()) {
    return written;
  }
  double read_s = 0.0;
  std::optional<NormalizationResult> warmup;
  if (Status st = PlainOp(*input, nullptr, nullptr, &read_s, &warmup);
      !st.ok()) {
    return st;
  }
  input->schema = warmup->schema.ToString();
  input->fds = warmup->stats.num_fds;
  input->relations = warmup->relations.size();
  return Status::OK();
}

uint64_t CrossShardViolations(const MetricsRegistry* metrics) {
  if (metrics == nullptr) return 0;
  const auto* counter = metrics->Snapshot().FindCounter(
      "shard_cross_shard_violations_total", "component=shard");
  return counter == nullptr ? 0 : counter->value;
}

// The gated statistic of both drivers. Their ops switch between the host's
// fast and slow modes within a run, in shares that vary from run to run: the
// median follows the share (quartile spread 0.37 over seeds 1-10), the tenth
// percentile stays with the fast mode (0.24).
double Gated(const Samples& samples) { return samples.Percentile(0.1); }

struct Phase {
  Samples plain;
  Samples sharded;
  LayerSamples layers;
};

// One measured phase: `pairs` alternating driver pairs.
void RunPhase(const Input& input, size_t pairs, Tracing* tracing,
              Outcome* outcome, Phase* phase) {
  Tracer* tracer = tracing != nullptr ? &tracing->tracer : nullptr;
  MetricsRegistry* metrics = tracing != nullptr ? &tracing->registry : nullptr;
  for (size_t pair = 0; pair < pairs; ++pair) {
    outcome->Run("tpch_csv plain driver", [&] {
      Stopwatch watch;
      double read_s = 0.0;
      std::optional<NormalizationResult> result;
      NORMALIZE_RETURN_IF_ERROR(
          PlainOp(input, tracer, metrics, &read_s, &result));
      phase->plain.Add(watch.ElapsedSeconds());
      if (result->schema.ToString() != input.schema) {
        return CheckFailed("plain driver schema differs from the warm-up");
      }
      phase->layers.Add("relation.csv_read_s", read_s);
      phase->layers.AddDiscoveryLayers(*result);
      phase->layers.AddNormalizeLayers(*result);
      return Status::OK();
    });
    outcome->Run("tpch_csv sharded driver", [&] {
      uint64_t violations_before = CrossShardViolations(metrics);
      Stopwatch watch;
      std::optional<NormalizationResult> result;
      NORMALIZE_RETURN_IF_ERROR(ShardedOp(input, tracer, metrics, &result));
      phase->sharded.Add(watch.ElapsedSeconds());
      if (result->schema.ToString() != input.schema) {
        return CheckFailed("sharded driver schema differs from the plain one");
      }
      phase->layers.Add("shard.ingest_s",
                        PhaseSeconds(*result, "shard_ingest"));
      phase->layers.Add("shard.discovery_s",
                        PhaseSeconds(*result, "discovery/shard_discovery"));
      phase->layers.Add("shard.evidence_exchange_s",
                        PhaseSeconds(*result, "discovery/evidence_exchange"));
      phase->layers.Add("shard.merge_validation_s",
                        PhaseSeconds(*result, "discovery/merge_validation"));
      uint64_t violations = CrossShardViolations(metrics) - violations_before;
      phase->layers.Add("shard.cross_shard_violations",
                        static_cast<double>(violations));
      return Status::OK();
    });
  }
}

}  // namespace

void RunTpchCsv(const Config& config, Report* report, Outcome* outcome) {
  report->Record("dataset",
                 "tpch_like universal relation, scale " +
                     FormatNumber(kScale) +
                     ", generator seed 7, rows shuffled by seed " +
                     std::to_string(config.seed));
  report->Record("max_lhs_size", std::to_string(kMaxLhs));
  report->Record("threads", "discovery=" + std::to_string(kThreads) +
                                " shard=" + std::to_string(kThreads) +
                                " closure=" + std::to_string(kThreads));
  report->Record("shards", std::to_string(kShards));

  Samples setup;
  Input input;
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch watch;
    bool ok = outcome->Run("tpch_csv setup", [&] {
      input = Input{};
      return Prepare(config, &input);
    });
    if (!ok) return;
    setup.Add(watch.ElapsedSeconds());
  }
  report->Record("rows", std::to_string(input.rows));
  report->Record("columns", std::to_string(input.columns));
  report->Record("shard_rows", std::to_string(ShardRows(input)));
  report->Record("fds", std::to_string(input.fds));
  report->Record("relations", std::to_string(input.relations));
  report->Timed("setup_s", "s", setup);

  // A traced run splits the measured time between an untraced and a traced
  // phase of equal length.
  const size_t pairs =
      config.trace ? OpsFor(config.seconds / 2, kNominalPairS, kMinOps / 2)
                   : OpsFor(config.seconds, kNominalPairS, kMinOps);
  report->Record("pairs_per_phase", std::to_string(pairs));
  Phase untraced;
  RunPhase(input, pairs, nullptr, outcome, &untraced);
  report->Timed("normalize_s", "s", untraced.plain);
  report->Timed("normalize_sharded_s", "s", untraced.sharded);
  report->Value("peak_rss_mb", "MiB", PeakRssMb());
  report->EndToEnd("setup_s", setup.Median());
  report->EndToEnd("op_ms", Gated(untraced.plain) * 1e3);
  report->EndToEnd("op2_ms", Gated(untraced.sharded) * 1e3);
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  if (!config.trace) return;

  Tracing tracing;
  Phase traced;
  RunPhase(input, pairs, &tracing, outcome, &traced);
  traced.layers.ReportMedians(report);
  double overhead_plain =
      Gated(traced.plain) / Gated(untraced.plain);
  double overhead_sharded =
      Gated(traced.sharded) / Gated(untraced.sharded);
  report->Record("tracing_overhead",
                 "op_ms=" + FormatNumber(overhead_plain) +
                     " op2_ms=" + FormatNumber(overhead_sharded));
  report->Layer("obs.tracing_overhead", overhead_plain);
  tracing.Write(config.trace_path);
}

}  // namespace perfbench
