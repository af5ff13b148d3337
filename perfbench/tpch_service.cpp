// Workload tpch_service: the durable service (ServiceCore) under one
// closed-loop client. The client sends Apply() batches of a NURand update
// stream with sync_wal on and checkpoints by count, and a Schema() read
// after every few batches (on a second core that serves the initial rows);
// the run then crashes the written core (destroy without Shutdown) and
// recovers it on the same directory. The maintainer (live)
// does nearly all of each ack; recovery exercises persist and the
// maintainer bootstrap.
//
// Also here: the known-defect reproduction (workload defect_repro), which
// is not part of BENCHMARK.json because its Schema() read is expected to
// fail.
#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "datagen/tpch_like.hpp"
#include "datagen/update_stream.hpp"
#include "discovery/hyfd.hpp"
#include "harness.hpp"
#include "live/live_relation.hpp"
#include "normalize/normalizer.hpp"
#include "service/service_core.hpp"

namespace perfbench {
namespace {

using normalize::LiveBatch;
using normalize::RelationData;
using normalize::Result;
using normalize::ScopedSpan;
using normalize::ServiceCore;
using normalize::ServiceStats;
using normalize::SpanRecord;
using normalize::Status;
using normalize::Stopwatch;

struct ServiceShape {
  double scale;           // TPC-H-like universal relation
  size_t batch_size;      // ops per Apply(), default mix
  size_t steady_batches;  // fixed steady prefix; exact counts are taken here
};

constexpr ServiceShape kShape{0.25, 16, 64};
// A Schema() read follows every kReadEvery-th batch. Reads go to a second,
// never-written core opened on the same initial rows, so every read sees the
// same rows whatever the seed's stream does: reads on the written core moved
// between seeds from 82 to 303 ms after a single batch.
constexpr size_t kReadEvery = 3;
constexpr double kNominalAckS = 0.18;  // one steady Apply() round trip
constexpr int kMaxLhs = 2;
constexpr int kThreads = 1;  // maintainer
constexpr bool kSyncWal = true;
constexpr uint64_t kCheckpointEvery = 64;  // the default
constexpr int kSetups = 3;
constexpr uint64_t kGeneratorSeed = 7;  // TpchScale's default

normalize::UpdateStreamSpec StreamSpec(const Config& config,
                                       size_t batch_size) {
  normalize::UpdateStreamSpec spec;  // default mix
  spec.batch_size = batch_size;
  spec.seed = config.seed;
  return spec;
}

RelationData GenerateUniversal(double scale, uint64_t generator_seed) {
  normalize::TpchScale tpch = normalize::TpchScale{}.Scaled(scale);
  tpch.seed = generator_seed;
  return normalize::GenerateTpchLike(tpch).universal;
}

// The client's batch source: a generator over a mirror of the served rows.
class Stream {
 public:
  Stream(const RelationData& initial, normalize::UpdateStreamSpec spec)
      : mirror_(initial), generator_(initial, spec) {}
  Result<LiveBatch> Next() {
    LiveBatch batch = generator_.NextBatch(mirror_);
    Result<normalize::BatchDelta> applied = mirror_.Apply(batch);
    if (!applied.ok()) return applied.status();
    return batch;
  }

 private:
  normalize::LiveRelation mirror_;
  normalize::UpdateStreamGenerator generator_;
};

normalize::ServiceCoreOptions CoreOptions(const std::string& dir,
                                          Tracing* tracing) {
  normalize::ServiceCoreOptions options;
  options.dir = dir;
  options.sync_wal = kSyncWal;
  options.checkpoint_every = kCheckpointEvery;
  options.max_lhs_size = kMaxLhs;
  options.threads = kThreads;
  options.metrics_snapshot_interval_ms = 0;  // no background scrape thread
  if (tracing != nullptr) {
    options.metrics = &tracing->registry;
    options.tracer = &tracing->tracer;
  }
  return options;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// The live engine's invariant: the served cover equals one-shot discovery
// on the served rows.
Status CheckCoverMatchesOneShot(ServiceCore* core, const std::string& when) {
  Result<RelationData> rows = core->Materialize();
  if (!rows.ok()) return rows.status();
  normalize::FdDiscoveryOptions options;
  options.max_lhs_size = kMaxLhs;
  options.threads = kThreads;
  normalize::HyFd oneshot(options);
  Result<normalize::FdSet> expected = oneshot.Discover(*rows);
  if (!expected.ok()) return expected.status();
  if (!core->Cover()->cover.EquivalentTo(*expected)) {
    return CheckFailed("served cover differs from one-shot HyFd " + when);
  }
  return Status::OK();
}

// Everything a steady phase measured.
struct Steady {
  Samples acks;    // Apply() round trips, seconds
  Samples reads;   // Schema() round trips, seconds
  size_t batches = 0;
  size_t acked_ops = 0;
  uint64_t last_seq = 0;
  // Exact counts over the fixed prefix of kShape.steady_batches batches.
  size_t prefix_ops = 0;
  uint64_t prefix_wal_bytes = 0;
  uint64_t prefix_checkpoint_bytes = 0;
  uint64_t prefix_checkpoints = 0;
  normalize::DeltaFdMaintainer::Stats prefix_before;
  normalize::DeltaFdMaintainer::Stats prefix_after;
  // Breakdown of the reads (traced phase only).
  Samples materialize;
  LayerSamples layers;
};

// One Schema() read on `core`. With `breakdown`, the read is followed by the
// same computation through the public calls it is made of (Materialize +
// RenormalizeWithCover), timed call by call.
void ReadOnce(ServiceCore* core, normalize::Tracer* tracer, bool breakdown,
              Outcome* outcome, Steady* steady) {
  outcome->Run("tpch_service schema read", [&] {
    ScopedSpan op(tracer, "op.schema_read");
    Stopwatch watch;
    Result<std::string> schema = [&] {
      ScopedSpan call(tracer, "ServiceCore::Schema");
      return core->Schema();
    }();
    double read_s = watch.ElapsedSeconds();
    if (!schema.ok()) return schema.status();
    steady->reads.Add(read_s);
    return Status::OK();
  });
  if (!breakdown) return;
  outcome->Run("tpch_service schema read breakdown", [&] {
    ScopedSpan op(tracer, "op.schema_read_breakdown");
    Stopwatch watch;
    Result<RelationData> rows = [&] {
      ScopedSpan call(tracer, "ServiceCore::Materialize");
      return core->Materialize();
    }();
    steady->materialize.Add(watch.ElapsedSeconds());
    if (!rows.ok()) return rows.status();
    // The options ServiceCore::Schema() uses.
    normalize::NormalizerOptions options;
    options.discovery.max_lhs_size = kMaxLhs;
    normalize::Normalizer normalizer(options);
    Result<normalize::NormalizationResult> result = [&] {
      ScopedSpan call(tracer, "Normalizer::RenormalizeWithCover");
      return normalizer.RenormalizeWithCover(*rows, core->Cover()->cover);
    }();
    if (!result.ok()) return result.status();
    steady->layers.AddNormalizeLayers(*result);
    steady->layers.Add("discovery.fds",
                       static_cast<double>(result->stats.num_fds));
    return Status::OK();
  });
}

// Runs `batches` steady batches from `next` (seq from `first_seq`), each
// kReadEvery-th followed by a read on `reader`; the exact counts cover the
// first `prefix` batches.
void RunAcks(ServiceCore* core, ServiceCore* reader, const std::string& dir,
             uint64_t first_seq, size_t batches, size_t prefix,
             const std::function<Result<LiveBatch>()>& next,
             normalize::Tracer* tracer, bool breakdown, Outcome* outcome,
             Steady* steady) {
  const std::string snap_path = dir + "/live.snap";
  ServiceStats before = core->stats();
  steady->prefix_before = before.maintainer;
  uint64_t checkpoints = before.checkpoints;
  uint64_t seq = first_seq;
  while (steady->batches < batches) {
    bool acked = outcome->Run("tpch_service apply", [&] {
      Result<LiveBatch> batch = next();
      if (!batch.ok()) return batch.status();
      size_t ops = batch->size();
      ScopedSpan op(tracer, "op.apply");
      Stopwatch watch;
      Status st = [&] {
        ScopedSpan call(tracer, "ServiceCore::Apply");
        return core->Apply(seq, std::move(batch).value());
      }();
      double ack_s = watch.ElapsedSeconds();
      if (!st.ok()) return st;
      steady->acks.Add(ack_s);
      steady->acked_ops += ops;
      if (steady->batches < prefix) steady->prefix_ops += ops;
      return Status::OK();
    });
    ++steady->batches;
    if (!acked) return;  // the client cannot continue past a lost ack
    steady->last_seq = seq++;
    ServiceStats now = core->stats();
    if (now.checkpoints > checkpoints) {
      checkpoints = now.checkpoints;
      if (steady->batches <= prefix) {
        steady->prefix_checkpoint_bytes += FileBytes(snap_path);
        ++steady->prefix_checkpoints;
      }
    }
    if (steady->batches == prefix) {
      steady->prefix_after = now.maintainer;
      steady->prefix_wal_bytes = now.wal_bytes - before.wal_bytes;
    }
    if (steady->batches % kReadEvery == 0) {
      ReadOnce(reader, tracer, breakdown, outcome, steady);
    }
  }
}

// Spans of one traced interval, indexed by id.
class SpanView {
 public:
  SpanView(const normalize::Tracer& tracer, uint64_t after_id) {
    for (SpanRecord& span : tracer.Export()) {
      if (span.id > after_id && span.finished) {
        by_id_[span.id] = std::move(span);
      }
    }
  }
  std::vector<const SpanRecord*> Named(const std::string& name) const {
    std::vector<const SpanRecord*> out;
    for (const auto& [id, span] : by_id_) {
      if (span.name == name) out.push_back(&span);
    }
    return out;
  }
  // Per-parent sums of the durations of spans named `name` whose parent is
  // named `parent_name`.
  Samples SumsPerParent(const std::string& name,
                        const std::string& parent_name) const {
    std::map<uint64_t, double> sums;
    for (const SpanRecord* span : Named(name)) {
      auto parent = by_id_.find(span->parent);
      if (parent != by_id_.end() && parent->second.name == parent_name) {
        sums[span->parent] += span->duration_seconds;
      }
    }
    Samples out;
    for (const auto& [id, sum] : sums) out.Add(sum);
    return out;
  }
  double ChildSeconds(const SpanRecord& parent, const std::string& name) const {
    double seconds = 0.0;
    for (const SpanRecord* span : Named(name)) {
      if (span->parent == parent.id) seconds += span->duration_seconds;
    }
    return seconds;
  }

 private:
  std::map<uint64_t, SpanRecord> by_id_;
};

struct HistogramDelta {
  uint64_t count = 0;
  double seconds = 0.0;
  double MeanMs() const { return count == 0 ? 0.0 : seconds * 1e3 / count; }
};

HistogramDelta Histogram(const normalize::MetricsSnapshot& before,
                         const normalize::MetricsSnapshot& after,
                         const std::string& name) {
  constexpr const char* kLabels = "component=service";
  HistogramDelta delta;
  const auto* a = after.FindHistogram(name, kLabels);
  if (a == nullptr) return delta;
  const auto* b = before.FindHistogram(name, kLabels);
  delta.count = a->count - (b != nullptr ? b->count : 0);
  delta.seconds = a->sum_seconds() - (b != nullptr ? b->sum_seconds() : 0.0);
  return delta;
}

std::string CoreDir(const Config& config, const std::string& name) {
  return config.work_dir + "/" + name;
}

// Opens a fresh core on `dir`.
Status OpenFresh(const RelationData& initial, const std::string& dir,
                 Tracing* tracing, std::unique_ptr<ServiceCore>* core) {
  std::filesystem::remove_all(dir);
  Result<std::unique_ptr<ServiceCore>> opened =
      ServiceCore::Open(initial, CoreOptions(dir, tracing));
  if (!opened.ok()) return opened.status();
  *core = std::move(opened).value();
  return Status::OK();
}

// Opens a fresh core on `dir` and acknowledges its first batch (seq 1).
Status OpenWithFirstBatch(const RelationData& initial, const LiveBatch& first,
                          const std::string& dir, Tracing* tracing,
                          std::unique_ptr<ServiceCore>* core) {
  NORMALIZE_RETURN_IF_ERROR(OpenFresh(initial, dir, tracing, core));
  return (*core)->Apply(1, first);
}

struct Recovery {
  double seconds = 0.0;
  uint64_t recovered_wal_records = 0;
};

// Crash-like teardown, then Open() on the same directory through the first
// acknowledged batch. Checks the recovered high-water mark and the cover.
bool CrashAndRecover(const RelationData& initial, const std::string& dir,
                     uint64_t last_acked, Stream* stream, Tracing* tracing,
                     Outcome* outcome, std::unique_ptr<ServiceCore>* core,
                     Recovery* recovery) {
  core->reset();
  Result<LiveBatch> batch = stream->Next();
  normalize::Tracer* tracer = tracing != nullptr ? &tracing->tracer : nullptr;
  bool ok = outcome->Run("tpch_service recover", [&] {
    if (!batch.ok()) return batch.status();
    ScopedSpan op(tracer, "op.recover");
    Stopwatch watch;
    Result<std::unique_ptr<ServiceCore>> opened = [&] {
      ScopedSpan call(tracer, "ServiceCore::Open");
      return ServiceCore::Open(initial, CoreOptions(dir, tracing));
    }();
    if (!opened.ok()) return opened.status();
    *core = std::move(opened).value();
    ServiceStats stats = (*core)->stats();
    if (stats.last_applied_seq != last_acked) {
      return CheckFailed("recovered last_applied_seq " +
                         std::to_string(stats.last_applied_seq) +
                         " != last acked seq " + std::to_string(last_acked));
    }
    NORMALIZE_RETURN_IF_ERROR([&] {
      ScopedSpan call(tracer, "ServiceCore::Apply");
      return (*core)->Apply(last_acked + 1, *batch);
    }());
    recovery->seconds = watch.ElapsedSeconds();
    recovery->recovered_wal_records = stats.recovered_wal_records;
    return Status::OK();
  });
  return ok && outcome->Run("tpch_service cover check after recovery", [&] {
    return CheckCoverMatchesOneShot(core->get(), "after recovery");
  });
}

void RecordShape(const Config& config, Report* report,
                 const ServiceShape& shape, const std::string& content,
                 size_t rows, int columns) {
  report->Record("dataset", "tpch_like universal relation, scale " +
                                FormatNumber(shape.scale) + ", " + content +
                                ", " + std::to_string(rows) + " rows x " +
                                std::to_string(columns) + " columns");
  report->Record("stream", "batch_size=" + std::to_string(shape.batch_size) +
                               " mix=insert 0.5/update 0.3/delete 0.2" +
                               " nurand_a=255 fresh_value_fraction=0.15" +
                               " seed=" + std::to_string(config.seed));
  report->Record("service", std::string("sync_wal=") +
                                (kSyncWal ? "on" : "off") +
                                " checkpoint_every=" +
                                std::to_string(kCheckpointEvery) +
                                " max_lhs_size=" + std::to_string(kMaxLhs));
  report->Record("threads",
                 "maintainer=" + std::to_string(kThreads) +
                     " oneshot_check_discovery=" + std::to_string(kThreads) +
                     " schema_read=ServiceCore::Schema defaults"
                     " (discovery.threads=0: all hardware threads)");
}

}  // namespace

void RunTpchService(const Config& config, Report* report, Outcome* outcome) {
  // Set-up, sampled kSetups times: generate the seed relation and the
  // stream, Open() a fresh directory, acknowledge the first batch (the
  // forced full re-induction). The last core serves the run.
  Samples setup;
  std::optional<RelationData> initial;
  std::optional<Stream> stream;
  std::optional<LiveBatch> first;
  std::unique_ptr<ServiceCore> core;
  const std::string dir = CoreDir(config, "service");
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch watch;
    core.reset();
    bool ok = outcome->Run("tpch_service setup", [&] {
      // Fixed content; the workload seed orders the rows and the stream.
      initial.emplace(ShuffleRows(
          GenerateUniversal(kShape.scale, kGeneratorSeed), config.seed));
      stream.emplace(*initial, StreamSpec(config, kShape.batch_size));
      Result<LiveBatch> batch = stream->Next();
      if (!batch.ok()) return batch.status();
      first.emplace(std::move(batch).value());
      return OpenWithFirstBatch(*initial, *first, dir, nullptr, &core);
    });
    if (!ok) return;
    setup.Add(watch.ElapsedSeconds());
  }
  RecordShape(config, report, kShape,
              "generator seed " + std::to_string(kGeneratorSeed) +
                  ", rows shuffled by seed " + std::to_string(config.seed),
              initial->num_rows(), initial->num_columns());
  report->Timed("setup_s", "s", setup);

  // The read core: opened once on the initial rows, never written.
  std::unique_ptr<ServiceCore> reader;
  Stopwatch reader_watch;
  if (!outcome->Run("tpch_service reader open", [&] {
        return OpenFresh(*initial, CoreDir(config, "reader"), nullptr,
                         &reader);
      })) {
    return;
  }
  report->Record("reader_open_s", FormatNumber(reader_watch.ElapsedSeconds()));

  // The untraced steady phase. A traced run keeps the batches to replay
  // them on a traced core, and runs exactly the fixed prefix on both.
  const size_t batches =
      config.trace
          ? kShape.steady_batches
          : OpsFor(config.seconds, kNominalAckS, kShape.steady_batches);
  std::vector<LiveBatch> replay;
  Steady untraced;
  RunAcks(
      core.get(), reader.get(), dir, 2, batches, kShape.steady_batches,
      [&]() -> Result<LiveBatch> {
        Result<LiveBatch> batch = stream->Next();
        if (batch.ok() && config.trace) replay.push_back(*batch);
        return batch;
      },
      nullptr, false, outcome, &untraced);
  if (!outcome->Run("tpch_service cover check after steady phase", [&] {
        return CheckCoverMatchesOneShot(core.get(), "after the steady phase");
      })) {
    return;
  }
  double updates_per_s = untraced.acks.Sum() > 0
                             ? untraced.acked_ops / untraced.acks.Sum()
                             : 0.0;
  double write_bytes_per_op =
      untraced.prefix_ops > 0
          ? static_cast<double>(untraced.prefix_wal_bytes +
                                untraced.prefix_checkpoint_bytes) /
                untraced.prefix_ops
          : 0.0;
  report->Record("steady_batches", std::to_string(untraced.batches) +
                                       " (exact counts over the first " +
                                       std::to_string(kShape.steady_batches) +
                                       ")");
  report->Timed("ack_p50_ms", "ms", untraced.acks, 1e3);
  report->Value("ack_p90_ms", "ms", untraced.acks.Percentile(0.9) * 1e3);
  report->Value("updates_per_s", "ops/s", updates_per_s);
  report->Timed("schema_read_p50_ms", "ms", untraced.reads, 1e3);
  report->Value("write_bytes_per_op", "B/op", write_bytes_per_op);
  report->EndToEnd("setup_s", setup.Median());
  report->EndToEnd("op_ms", untraced.acks.Median() * 1e3);
  report->EndToEnd("op2_ms", untraced.reads.Median() * 1e3);

  if (!config.trace) {
    Recovery recovery;
    CrashAndRecover(*initial, dir, untraced.last_seq, &*stream, nullptr,
                    outcome, &core, &recovery);
    report->Value("recover_s", "s", recovery.seconds);
    report->Record("recovered_wal_records",
                   std::to_string(recovery.recovered_wal_records));
    core.reset();
    report->Value("peak_rss_mb", "MiB", PeakRssMb());
    report->EndToEnd("peak_rss_mb", PeakRssMb());
    return;
  }

  // Traced run: a fresh traced core replays the identical first batch and
  // steady batches, then crashes and recovers under the tracer.
  core.reset();
  Tracing tracing;
  const std::string traced_dir = CoreDir(config, "service_traced");
  if (!outcome->Run("tpch_service traced setup", [&] {
        return OpenWithFirstBatch(*initial, *first, traced_dir, &tracing,
                                  &core);
      })) {
    return;
  }
  uint64_t phase_start_id = tracing.tracer.started_spans();
  normalize::MetricsSnapshot registry_before = tracing.registry.Snapshot();
  size_t replayed = 0;
  Steady traced;
  RunAcks(
      core.get(), reader.get(), traced_dir, 2, replay.size(), replay.size(),
      [&]() -> Result<LiveBatch> { return replay[replayed++]; },
      &tracing.tracer, true, outcome, &traced);
  normalize::MetricsSnapshot registry_after = tracing.registry.Snapshot();
  SpanView phase_spans(tracing.tracer, phase_start_id);
  if (!outcome->Run("tpch_service traced cover check", [&] {
        return CheckCoverMatchesOneShot(core.get(), "after the traced phase");
      })) {
    return;
  }

  uint64_t recovery_start_id = tracing.tracer.started_spans();
  Recovery recovery;
  if (!CrashAndRecover(*initial, traced_dir, traced.last_seq, &*stream,
                       &tracing, outcome, &core, &recovery)) {
    return;
  }
  core.reset();
  SpanView recovery_spans(tracing.tracer, recovery_start_id);

  // live: per-batch maintainer spans and exact stat deltas.
  Samples apply_batch;
  for (const SpanRecord* span : phase_spans.Named("apply_batch")) {
    apply_batch.Add(span->duration_seconds);
  }
  double traced_batches = static_cast<double>(traced.batches);
  const auto& b = traced.prefix_before;
  const auto& a = traced.prefix_after;
  size_t reseated = a.evidence_reseated - b.evidence_reseated;
  size_t dropped = a.evidence_dropped - b.evidence_dropped;
  report->Layer("live.apply_batch_ms", apply_batch.Median() * 1e3);
  report->Layer("live.probe_ms",
                phase_spans.SumsPerParent("probe", "apply_batch").Median() *
                    1e3);
  report->Layer("live.publish_ms",
                phase_spans.SumsPerParent("publish", "apply_batch").Median() *
                    1e3);
  report->Layer("live.rebuilds_per_batch",
                (a.tree_rebuilds - b.tree_rebuilds) / traced_batches);
  report->Layer("live.full_validations_per_batch",
                (a.full_validations - b.full_validations) / traced_batches);
  report->Layer("live.guided_probes_per_batch",
                (a.guided_probes - b.guided_probes) / traced_batches);
  report->Layer("live.violations_per_batch",
                (a.violations - b.violations) / traced_batches);
  report->Layer("live.reseat_ratio",
                reseated + dropped > 0
                    ? static_cast<double>(reseated) / (reseated + dropped)
                    : 0.0);
  report->Record("reseat_attempts", std::to_string(reseated + dropped));

  // service: WAL, queue, checkpoints, reads.
  HistogramDelta wal =
      Histogram(registry_before, registry_after, "service_wal_append_seconds");
  HistogramDelta process = Histogram(registry_before, registry_after,
                                     "service_batch_process_seconds");
  HistogramDelta checkpoint =
      Histogram(registry_before, registry_after, "service_checkpoint_seconds");
  double mean_ack_ms = traced.acks.Sum() * 1e3 / traced.acks.count();
  report->Layer("service.ack_p90_ms", untraced.acks.Percentile(0.9) * 1e3);
  report->Layer("service.write_bytes_per_op", write_bytes_per_op);
  report->Layer("service.wal_append_ms", wal.MeanMs());
  report->Layer("service.queue_ms", mean_ack_ms - process.MeanMs());
  report->Layer("service.checkpoint_ms", checkpoint.MeanMs());
  report->Layer("service.checkpoints",
                static_cast<double>(traced.prefix_checkpoints));
  report->Layer("service.wal_bytes_per_op",
                static_cast<double>(traced.prefix_wal_bytes) /
                    traced.prefix_ops);
  report->Layer("persist.checkpoint_bytes",
                traced.prefix_checkpoints > 0
                    ? static_cast<double>(traced.prefix_checkpoint_bytes) /
                          traced.prefix_checkpoints
                    : 0.0);
  report->Layer("service.materialize_ms", traced.materialize.Median() * 1e3);
  traced.layers.ReportMedians(report);

  // Recovery: recover = checkpoint load + WAL replay + initialize + the
  // fresh checkpoint; then the first batch pays the forced re-induction.
  double initialize_s = 0.0;
  double replay_s = 0.0;
  for (const SpanRecord* span : recovery_spans.Named("recover")) {
    double init = recovery_spans.ChildSeconds(*span, "initialize");
    initialize_s += init;
    replay_s += span->duration_seconds - init -
                recovery_spans.ChildSeconds(*span, "checkpoint");
  }
  std::vector<const SpanRecord*> first_batches =
      recovery_spans.Named("apply_batch");
  double first_batch_s =
      first_batches.empty() ? 0.0 : first_batches.front()->duration_seconds;
  report->Layer("service.recover_s", recovery.seconds);
  report->Layer("live.initialize_s", initialize_s);
  report->Layer("live.first_batch_ms", first_batch_s * 1e3);
  report->Layer("service.wal_replay_s", replay_s);
  report->Layer("service.recovered_wal_records",
                static_cast<double>(recovery.recovered_wal_records));

  // Coverage of the traced op time by the non-remainder layers.
  report->Record("coverage_ack",
                 FormatNumber((apply_batch.Sum() + wal.seconds) /
                              traced.acks.Sum()) +
                     " (apply_batch + wal_append over ack time)");
  report->Record("coverage_recover",
                 FormatNumber((initialize_s + first_batch_s) /
                              recovery.seconds) +
                     " (initialize + first batch over recover_s)");
  double overhead =
      traced.acks.Median() / untraced.acks.Median();
  report->Record("tracing_overhead",
                 "op_ms=" + FormatNumber(overhead) +
                     " op2_ms=" +
                     FormatNumber(traced.reads.Median() /
                                  untraced.reads.Median()) +
                     " updates_per_s=" +
                     FormatNumber(untraced.acks.Sum() / untraced.acked_ops /
                                  (traced.acks.Sum() / traced.acked_ops)));
  report->Layer("obs.tracing_overhead", overhead);
  tracing.Write(config.trace_path);
  report->EndToEnd("peak_rss_mb", PeakRssMb());
}

// The known defect: from TPC-H seed 42 (scale 1), 32 default-mix batches of
// 256 ops leave a key-less 42-column relation whose primary-key selection
// falls back to uncapped minimal-UCC discovery. Under the address-space
// ceiling the Schema() read ends in std::bad_alloc, counted as a failed op.
void RunDefectRepro(const Config& config, Report* report, Outcome* outcome) {
  const ServiceShape shape{1.0, 256, 32};
  RelationData initial = GenerateUniversal(shape.scale, config.seed);
  RecordShape(config, report, shape,
              "generator seed " + std::to_string(config.seed),
              initial.num_rows(), initial.num_columns());
  Stream stream(initial, StreamSpec(config, shape.batch_size));
  const std::string dir = CoreDir(config, "defect");
  std::filesystem::remove_all(dir);
  Stopwatch open_watch;
  Result<std::unique_ptr<ServiceCore>> core =
      ServiceCore::Open(initial, CoreOptions(dir, nullptr));
  if (!outcome->Run("defect_repro open", [&] { return core.status(); })) {
    return;
  }
  report->EndToEnd("setup_s", open_watch.ElapsedSeconds());
  Samples acks;
  for (uint64_t seq = 1; seq <= shape.steady_batches; ++seq) {
    bool ok = outcome->Run("defect_repro apply", [&] {
      Result<LiveBatch> batch = stream.Next();
      if (!batch.ok()) return batch.status();
      Stopwatch watch;
      NORMALIZE_RETURN_IF_ERROR(
          (*core)->Apply(seq, std::move(batch).value()));
      acks.Add(watch.ElapsedSeconds());
      return Status::OK();
    });
    if (!ok) return;
  }
  report->Record("live_rows", std::to_string((*core)->Cover()->live_rows));
  report->Timed("ack_ms", "ms", acks, 1e3);
  Stopwatch watch;
  outcome->Run("defect_repro schema read", [&] {
    return (*core)->Schema().status();
  });
  report->Value("schema_read_s", "s", watch.ElapsedSeconds());
  report->EndToEnd("op_ms", acks.Median() * 1e3);
  report->EndToEnd("op2_ms", watch.ElapsedSeconds() * 1e3);
  report->EndToEnd("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
