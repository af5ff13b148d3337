// Workload horse_fds: re-normalize an FD-dense relation from its known
// cover. Setup discovers the Horse-like profile's minimal cover once
// (Normalizer::Normalize, LHS <= 4); each op pair then runs components
// (2)-(7) with Normalizer::RenormalizeWithCover, once with the optimized
// closure (the default) and once with the paper's improved closure
// (Algorithm 2), so closure, key derivation and violation detection do all
// the timed work and discovery none.
#include <optional>
#include <string>

#include "common/stopwatch.hpp"
#include "datagen/datasets.hpp"
#include "harness.hpp"
#include "normalize/normalizer.hpp"

namespace perfbench {
namespace {

using normalize::NormalizationResult;
using normalize::Result;
using normalize::ScopedSpan;
using normalize::Status;
using normalize::Stopwatch;
using normalize::Tracer;

constexpr double kScale = 1.0;  // 368 rows x 27 columns
constexpr uint64_t kGeneratorSeed = 1;
constexpr int kMaxLhs = 4;
constexpr int kSetupThreads = 4;  // cover discovery at setup
constexpr int kThreads = 1;       // the timed re-normalizations
constexpr int kSetups = 3;
constexpr size_t kMinOps = 20;
constexpr double kNominalPairS = 0.6;  // one op with each closure

struct Input {
  normalize::RelationData relation;
  normalize::FdSet cover;  // discovered_fds of the setup Normalize
  std::string schema;      // its schema: every op must reproduce it
  std::optional<NormalizationResult> setup_result;
};

Status Prepare(const Config& config, Input* input) {
  input->relation =
      ShuffleRows(normalize::HorseLike(kScale, kGeneratorSeed), config.seed);
  normalize::NormalizerOptions options;
  options.discovery.max_lhs_size = kMaxLhs;
  options.discovery.threads = kSetupThreads;
  options.closure_threads = 1;
  normalize::Normalizer normalizer(options);
  Result<NormalizationResult> result = normalizer.Normalize(input->relation);
  if (!result.ok()) return result.status();
  input->cover = result->discovered_fds;
  input->schema = result->schema.ToString();
  input->setup_result.emplace(std::move(result).value());
  return Status::OK();
}

Status RenormalizeOp(const Input& input, const std::string& closure,
                     Tracer* tracer, double* seconds,
                     std::optional<NormalizationResult>* result) {
  normalize::NormalizerOptions options;
  options.discovery.max_lhs_size = kMaxLhs;
  options.discovery.threads = kThreads;
  options.closure_threads = kThreads;
  options.closure_algorithm = closure;
  ScopedSpan op(tracer, "op.renormalize_" + closure);
  Stopwatch watch;
  normalize::Normalizer normalizer(options);
  Result<NormalizationResult> renormalized = [&] {
    ScopedSpan call(tracer, "Normalizer::RenormalizeWithCover");
    return normalizer.RenormalizeWithCover(input.relation, input.cover);
  }();
  *seconds = watch.ElapsedSeconds();
  if (!renormalized.ok()) return renormalized.status();
  if (renormalized->schema.ToString() != input.schema) {
    return CheckFailed("RenormalizeWithCover (" + closure +
                       " closure) schema differs from the setup Normalize");
  }
  result->emplace(std::move(renormalized).value());
  return Status::OK();
}

struct Phase {
  Samples optimized;
  Samples improved;
  LayerSamples layers;
};

// One measured phase: `pairs` op pairs, one with each closure algorithm.
void RunPhase(const Input& input, size_t pairs, Tracer* tracer,
              Outcome* outcome, Phase* phase) {
  for (size_t pair = 0; pair < pairs; ++pair) {
    outcome->Run("horse_fds optimized closure", [&] {
      double seconds_taken = 0.0;
      std::optional<NormalizationResult> result;
      NORMALIZE_RETURN_IF_ERROR(RenormalizeOp(input, "optimized", tracer,
                                              &seconds_taken, &result));
      phase->optimized.Add(seconds_taken);
      phase->layers.AddNormalizeLayers(*result);
      return Status::OK();
    });
    outcome->Run("horse_fds improved closure", [&] {
      double seconds_taken = 0.0;
      std::optional<NormalizationResult> result;
      NORMALIZE_RETURN_IF_ERROR(RenormalizeOp(input, "improved", tracer,
                                              &seconds_taken, &result));
      phase->improved.Add(seconds_taken);
      return Status::OK();
    });
  }
}

}  // namespace

void RunHorseFds(const Config& config, Report* report, Outcome* outcome) {
  report->Record("dataset", "horse_like, scale " + FormatNumber(kScale) +
                                ", generator seed " +
                                std::to_string(kGeneratorSeed) +
                                ", rows shuffled by seed " +
                                std::to_string(config.seed));
  report->Record("max_lhs_size", std::to_string(kMaxLhs));
  report->Record("threads", "setup_discovery=" +
                                std::to_string(kSetupThreads) +
                                " renormalize_closure=" +
                                std::to_string(kThreads));

  Samples setup;
  Input input;
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch watch;
    bool ok = outcome->Run("horse_fds setup", [&] {
      input = Input{};
      return Prepare(config, &input);
    });
    if (!ok) return;
    setup.Add(watch.ElapsedSeconds());
  }
  report->Record("rows", std::to_string(input.relation.num_rows()));
  report->Record("columns", std::to_string(input.relation.num_columns()));
  report->Record("cover_fds", std::to_string(input.cover.CountUnaryFds()));
  report->Timed("setup_s", "s", setup);

  // A traced run splits the measured time between an untraced and a traced
  // phase of equal length.
  const size_t pairs =
      config.trace ? OpsFor(config.seconds / 2, kNominalPairS, kMinOps / 2)
                   : OpsFor(config.seconds, kNominalPairS, kMinOps);
  report->Record("pairs_per_phase", std::to_string(pairs));
  Phase untraced;
  RunPhase(input, pairs, nullptr, outcome, &untraced);
  report->Timed("renormalize_s", "s", untraced.optimized);
  report->Timed("renormalize_improved_closure_s", "s", untraced.improved);
  report->Value("peak_rss_mb", "MiB", PeakRssMb());
  report->EndToEnd("setup_s", setup.Median());
  report->EndToEnd("op_ms", untraced.optimized.Median() * 1e3);
  report->EndToEnd("op2_ms", untraced.improved.Median() * 1e3);
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  if (!config.trace) return;

  Tracing tracing;
  Phase traced;
  // Discovery runs only at setup on this workload: its phases come from the
  // setup Normalize that produced the cover.
  traced.layers.AddDiscoveryLayers(*input.setup_result);
  RunPhase(input, pairs, &tracing.tracer, outcome, &traced);
  traced.layers.ReportMedians(report);
  double overhead =
      traced.optimized.Median() / untraced.optimized.Median();
  report->Record("tracing_overhead",
                 "op_ms=" + FormatNumber(overhead) + " op2_ms=" +
                     FormatNumber(traced.improved.Median() /
                                  untraced.improved.Median()));
  report->Layer("obs.tracing_overhead", overhead);
  tracing.Write(config.trace_path);
}

}  // namespace perfbench
