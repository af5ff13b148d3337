#include "normalize/normalizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>

#include <filesystem>

#include "audit/decomposition_auditor.hpp"
#include "closure/closure.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "discovery/ucc.hpp"
#include "persist/checkpoint.hpp"
#include "normalize/decomposition.hpp"
#include "normalize/key_derivation.hpp"
#include "normalize/scoring.hpp"
#include "shard/shard_relation.hpp"
#include "shard/sharded_csv.hpp"
#include "shard/sharded_discovery.hpp"

namespace normalize {

namespace {

/// The error a checkpointed run returns when an interruption ends it: the
/// interruption itself, annotated with where the state went and how to
/// continue. Degrading instead would finish with a *different* schema than
/// the checkpoint promises to resume to.
Status CheckpointedInterruption(const Status& why, const std::string& dir) {
  return Status(why.code(),
                why.message() + "; pipeline state checkpointed to " + dir +
                    " (rerun with --checkpoint-dir=" + dir +
                    " --resume to continue)");
}

/// The run's checkpoint manager, keyed by the input's identity and the run
/// configuration; null when checkpointing is off.
std::unique_ptr<CheckpointManager> MakeCheckpoint(
    const NormalizerOptions& options, std::string source,
    uint64_t source_size, int columns) {
  if (!options.checkpoint.enabled()) return nullptr;
  CheckpointFingerprint fp;
  fp.source = std::move(source);
  fp.source_size = source_size;
  fp.backend = options.discovery_algorithm;
  fp.max_lhs_size = options.discovery.max_lhs_size;
  fp.shard_rows = options.shard.shard_rows;
  fp.columns = columns;
  return std::make_unique<CheckpointManager>(options.checkpoint,
                                             std::move(fp));
}

/// `ctx` with `checkpoint` installed as its checkpoint hook (copied into
/// `storage`), so stages flush interruption notes before unwinding.
const RunContext* WithCheckpointHook(const RunContext* ctx,
                                     CheckpointManager* checkpoint,
                                     RunContext* storage) {
  if (ctx == nullptr || checkpoint == nullptr) return ctx;
  *storage = *ctx;
  storage->checkpoint_hook = checkpoint;
  return storage;
}

/// An in-memory input as the shards discovery and decomposition run on.
/// With sharding configured, one slicing drives both partitioned discovery
/// and the out-of-core decomposition — same result, bounded transient
/// memory (FinishNormalization).
std::vector<RelationData> InputShards(const RelationData& input,
                                      size_t shard_rows) {
  if (shard_rows > 0) return SliceIntoShards(input, shard_rows);
  return std::vector<RelationData>(1, input);
}

}  // namespace

std::string DecisionRecord::ToString(
    const std::vector<std::string>& attribute_names) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (score %.3f, rank %d of %d)", score, rank,
                num_candidates);
  switch (kind) {
    case Kind::kSplit:
      return relation + ": split on " + chosen_fd.ToString(attribute_names) +
             buf;
    case Kind::kSplitDeclined:
      return relation + ": all " + std::to_string(num_candidates) +
             " split candidates declined";
    case Kind::kPrimaryKey:
      return relation + ": primary key " +
             chosen_key.ToString(attribute_names) + buf;
    case Kind::kPrimaryKeyDeclined:
      return relation + ": left without a primary key (" +
             std::to_string(num_candidates) + " candidates declined)";
  }
  return relation;
}

Normalizer::Normalizer(NormalizerOptions options, Advisor* advisor)
    : options_(std::move(options)),
      advisor_(advisor != nullptr ? advisor : &auto_advisor_) {}

Normalizer::~Normalizer() = default;

ThreadPool* Normalizer::SharedPool() {
  int want = std::max({ResolveThreadCount(options_.discovery.threads),
                       ResolveThreadCount(options_.closure_threads),
                       ResolveThreadCount(options_.shard.threads)});
  if (want <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(want);
  if (options_.context != nullptr) {
    // Cancelling the run makes the shared pool reject new tasks fast.
    pool_->SetCancellation(options_.context->cancel);
  }
  return pool_.get();
}

void Normalizer::RecordDiscoveryStats(NormalizationStats* stats,
                                      const FdSet& fds, double seconds,
                                      const PhaseMetrics& discovery_phases) {
  stats->fd_discovery_s = seconds;
  stats->num_fds = fds.CountUnaryFds();
  stats->avg_rhs_before = fds.AverageRhsSize();
  stats->phases.Record("fd_discovery", seconds, stats->num_fds);
  stats->phases.MergeFrom(discovery_phases, "discovery/");
}

Result<NormalizationResult> Normalizer::Normalize(const RelationData& input) {
  Stopwatch total_watch;
  // No ingest stage: the input is already in memory, and the fingerprint
  // pins its identity.
  std::unique_ptr<CheckpointManager> checkpoint = MakeCheckpoint(
      options_, input.name(), input.num_rows(), input.num_columns());
  RunContext hook_ctx;
  const RunContext* ctx =
      WithCheckpointHook(options_.context, checkpoint.get(), &hook_ctx);
  return DiscoverAndFinish(
      input.name(), InputShards(input, options_.shard.shard_rows),
      checkpoint.get(), ctx, NormalizationResult(), total_watch);
}

Result<NormalizationResult> Normalizer::DiscoverAndFinish(
    const std::string& input_name, std::vector<RelationData> shards,
    CheckpointManager* checkpoint, const RunContext* ctx,
    NormalizationResult result, const Stopwatch& total_watch) {
  NormalizationStats& stats = result.stats;
  const bool resume = checkpoint != nullptr && options_.checkpoint.resume;

  // --- (1) FD discovery ---
  // A checkpointed final cover supersedes discovery: the minimal cover is
  // unique, and the decomposition is deterministic given cover + input.
  FdSet fds;
  bool cover_loaded = false;
  if (resume) {
    auto cover = checkpoint->LoadCover();
    if (cover.ok()) {
      fds = std::move(cover).value();
      cover_loaded = true;
      stats.resumed = true;
      stats.resumed_stages.push_back("cover");
      RecordDiscoveryStats(&stats, fds, 0.0, PhaseMetrics());
    } else if (cover.status().code() != StatusCode::kNotFound) {
      return cover.status();
    }
  }
  if (!cover_loaded) {
    DiscoveryResumeState resume_state;
    if (resume) {
      NORMALIZE_ASSIGN_OR_RETURN(
          resume_state, checkpoint->LoadDiscoveryResume(shards.size()));
      if (!resume_state.shard_covers.empty()) {
        stats.resumed_stages.push_back("shard_covers");
      }
      if (resume_state.has_frontier) {
        stats.resumed_stages.push_back("merge_frontier");
      } else if (!resume_state.agree_sets.empty()) {
        stats.resumed_stages.push_back("evidence");
      }
      stats.resumed = !stats.resumed_stages.empty();
    }
    FdDiscoveryOptions discovery_options = options_.discovery;
    if (discovery_options.context == nullptr) discovery_options.context = ctx;
    Status completion;
    NORMALIZE_ASSIGN_OR_RETURN(
        fds, RunDiscovery(shards, discovery_options, checkpoint,
                          std::move(resume_state), &stats, &completion));
    if (checkpoint != nullptr) {
      // A checkpointed run never degrades — degrading would finish with a
      // different schema than the checkpoint promises a resume will reach.
      if (!completion.ok()) {
        checkpoint->OnInterruption(completion);
        return CheckpointedInterruption(completion, options_.checkpoint.dir);
      }
      NORMALIZE_RETURN_IF_ERROR(checkpoint->SaveCover(fds));
    } else {
      NORMALIZE_RETURN_IF_ERROR(ApplyDiscoveryDegradation(
          std::move(completion), shards, &fds, &stats));
    }
  }

  // Once the deadline has tripped, finishing under it would skip every
  // remaining stage — run them to completion on what discovery produced,
  // but stay cancellable.
  RunContext fallback_ctx;
  if (!stats.completion.ok() && ctx != nullptr) {
    fallback_ctx.cancel = ctx->cancel;
    ctx = &fallback_ctx;
  }
  return FinishNormalization(input_name, std::move(shards), std::move(fds),
                             std::move(result), total_watch, ctx);
}

Result<FdSet> Normalizer::RunDiscovery(const std::vector<RelationData>& shards,
                                       FdDiscoveryOptions options,
                                       CheckpointManager* checkpoint,
                                       DiscoveryResumeState resume,
                                       NormalizationStats* stats,
                                       Status* completion) {
  options.pool = SharedPool();
  Stopwatch watch;
  ShardedDiscovery discovery(options_.discovery_algorithm, options,
                             options_.shard);
  discovery.SetCheckpointSink(checkpoint);
  discovery.SetResumeState(std::move(resume));
  NORMALIZE_ASSIGN_OR_RETURN(FdSet fds, discovery.Discover(shards));
  *completion = discovery.completion_status();
  stats->plis_reused += discovery.stats().plis_reused;
  RecordDiscoveryStats(stats, fds, watch.ElapsedSeconds(),
                       discovery.phase_metrics());
  return fds;
}

int PickDegradedMaxLhs(const PhaseMetrics& discovery_phases,
                       double budget_seconds) {
  if (!(budget_seconds > 0) || !std::isfinite(budget_seconds)) return 0;
  // Accumulate per-LHS-size times across the "*_L<k>" records (they may
  // carry the "discovery/" prefix after the stats merge).
  std::map<int, double> level_seconds;
  for (const PhaseMetrics::Phase& phase : discovery_phases.phases()) {
    size_t pos = phase.name.rfind("_L");
    if (pos == std::string::npos) continue;
    std::string digits = phase.name.substr(pos + 2);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    int level = std::atoi(digits.c_str());
    if (level <= 0) continue;  // an LHS-size bound of 0 is meaningless
    level_seconds[level] += phase.seconds;
  }
  // Half the budget re-pays the levels the interrupted run already timed;
  // the other half is headroom for sampling, induction, and the stages
  // after discovery.
  double budget = 0.5 * budget_seconds;
  double cumulative = 0.0;
  int pick = 0;
  for (const auto& entry : level_seconds) {
    cumulative += entry.second;
    if (cumulative > budget) break;
    pick = entry.first;
  }
  return pick;
}

Status Normalizer::ApplyDiscoveryDegradation(
    Status completion, const std::vector<RelationData>& shards, FdSet* fds,
    NormalizationStats* stats) {
  if (completion.ok()) return Status::OK();
  if (completion.code() == StatusCode::kCancelled) return completion;

  // Deadline exceeded: try the bounded rerun first — the paper's LHS-size
  // pruning (§4.3) reused as a time bound. The bound comes from the
  // interrupted run's own per-level timings when they support a choice, and
  // from the degraded_max_lhs constant otherwise. Skip the rerun when the
  // original run was already at least as bounded (it would redo the same
  // work).
  int bound = options_.degraded_max_lhs;
  if (options_.adaptive_degradation && options_.context != nullptr) {
    int adaptive = PickDegradedMaxLhs(
        stats->phases, options_.context->deadline.budget_seconds());
    if (adaptive > 0) {
      bound = adaptive;
      stats->adaptive_degraded_max_lhs = adaptive;
    }
  }
  bool already_bounded = options_.discovery.max_lhs_size > 0 &&
                         options_.discovery.max_lhs_size <= bound;
  if (options_.degrade_on_deadline && bound > 0 && !already_bounded) {
    // The rerun keeps the cancel token but drops the (already expired)
    // deadline and the fault injector (whose latched interruption would
    // fire again immediately).
    RunContext degraded_ctx;
    if (options_.context != nullptr) {
      degraded_ctx.cancel = options_.context->cancel;
    }
    FdDiscoveryOptions degraded = options_.discovery;
    degraded.max_lhs_size = bound;
    degraded.context = &degraded_ctx;
    Status degraded_completion;
    Result<FdSet> degraded_fds =
        RunDiscovery(shards, degraded, /*checkpoint=*/nullptr,
                     DiscoveryResumeState(), stats, &degraded_completion);
    if (!degraded_fds.ok()) return degraded_fds.status();
    if (degraded_completion.ok()) {
      *fds = std::move(degraded_fds).value();
      stats->degraded_discovery = true;
      stats->completion = std::move(completion);
      stats->skipped.push_back(
          "fd_discovery: deadline exceeded; rerun with max_lhs_size=" +
          std::to_string(bound) +
          (stats->adaptive_degraded_max_lhs > 0 ? " (adaptive)" : "") +
          " (FDs with larger LHSs are not explored)");
      return Status::OK();
    }
    // Without a deadline the rerun can only be interrupted by cancellation.
    if (degraded_completion.code() == StatusCode::kCancelled) {
      return degraded_completion;
    }
    completion = std::move(degraded_completion);
  }

  // Continue on the interrupted run's sound partial cover.
  stats->completion = std::move(completion);
  stats->skipped.push_back(
      "fd_discovery: deadline exceeded; continuing with the sound partial "
      "cover (" +
      std::to_string(fds->size()) + " aggregated FDs)");
  return Status::OK();
}

Result<NormalizationResult> Normalizer::RenormalizeWithCover(
    const RelationData& input, FdSet cover) {
  Stopwatch total_watch;
  NormalizationResult result;
  // Discovery already happened (incrementally); its cost is reported as 0
  // here — bench_churn charges maintenance per batch instead.
  RecordDiscoveryStats(&result.stats, cover, 0.0, PhaseMetrics());
  return FinishNormalization(
      input.name(), InputShards(input, options_.shard.shard_rows),
      std::move(cover), std::move(result), total_watch, options_.context);
}

Result<NormalizationResult> Normalizer::NormalizeCsvFile(
    const std::string& path, const CsvOptions& csv_options) {
  Stopwatch total_watch;
  NormalizationResult result;
  // The column count is unknown before ingest, so CSV fingerprints key it
  // as 0 and pin the input by path and file size.
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) size = 0;
  std::unique_ptr<CheckpointManager> checkpoint =
      MakeCheckpoint(options_, path, size, /*columns=*/0);
  RunContext hook_ctx;
  const RunContext* ctx =
      WithCheckpointHook(options_.context, checkpoint.get(), &hook_ctx);

  Stopwatch watch;
  ShardedRelation sharded;
  bool ingest_loaded = false;
  if (checkpoint != nullptr && options_.checkpoint.resume) {
    auto loaded = checkpoint->LoadIngest();
    if (loaded.ok()) {
      sharded = std::move(loaded).value();
      ingest_loaded = true;
      result.stats.resumed = true;
      result.stats.resumed_stages.push_back("ingest");
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  if (!ingest_loaded) {
    ShardedCsvReader reader(csv_options, options_.shard, ctx);
    size_t ingest_retries = 0;
    auto ingest_result =
        reader.ReadFileWithRetry(path, options_.ingest_retry, &ingest_retries);
    if (!ingest_result.ok()) return ingest_result.status();
    sharded = std::move(ingest_result).value();
    result.stats.ingest_retries = ingest_retries;
    if (checkpoint != nullptr) {
      NORMALIZE_RETURN_IF_ERROR(checkpoint->SaveIngest(sharded));
    }
  }
  result.stats.peak_ingest_buffer_bytes = sharded.peak_ingest_buffer_bytes;
  result.stats.phases.Record("shard_ingest", watch.ElapsedSeconds(),
                             sharded.total_rows);

  // Decomposition works directly on the ingest shards — the input is never
  // stitched into one relation; only the final result's instances are.
  return DiscoverAndFinish(sharded.name, std::move(sharded.shards),
                           checkpoint.get(), ctx, std::move(result),
                           total_watch);
}

Result<NormalizationResult> Normalizer::FinishNormalization(
    const std::string& input_name, std::vector<RelationData> input_shards,
    FdSet fds, NormalizationResult result, const Stopwatch& total_watch,
    const RunContext* ctx) {
  NormalizationStats& stats = result.stats;
  Stopwatch watch;
  if (input_shards.empty()) {
    input_shards.emplace_back(input_name, std::vector<AttributeId>{},
                              std::vector<std::string>{});
  }
  // The auditor compares against the original instance, which the
  // decomposition loop consumes — materialize it up front (the audit is an
  // opt-in diagnostic, deliberately not out-of-core).
  std::optional<RelationData> audit_input;
  if (options_.audit) {
    audit_input = input_shards.size() == 1
                      ? input_shards.front()
                      : ConcatenateShards(input_shards, input_name);
    audit_input->set_name(input_name);
  }
  // Per-relation working sets: working[i] holds schema relation i as
  // dictionary-sharing row-range shards (exactly one on the in-memory
  // path). `proto` is only valid until the loop starts replacing working
  // sets — everything schema-shaped is derived from it before that.
  std::vector<std::vector<RelationData>> working;
  working.push_back(std::move(input_shards));
  const RelationData& proto = working.front().front();
  // Keep the pre-closure minimal cover: the auditor's minimality and
  // completeness checks are only meaningful on this form.
  result.discovered_fds = fds;

  // --- (2) closure calculation ---
  std::unique_ptr<ClosureAlgorithm> closure = MakeClosure(
      options_.closure_algorithm,
      ClosureOptions{options_.closure_threads, SharedPool(), ctx});
  if (closure == nullptr) {
    return Status::InvalidArgument("unknown closure algorithm: " +
                                   options_.closure_algorithm);
  }
  AttributeSet all_attrs = proto.AttributesAsSet();
  watch.Restart();
  Status closure_status = closure->Extend(&fds, all_attrs);
  if (!closure_status.ok()) {
    if (closure_status.code() == StatusCode::kCancelled ||
        !IsInterruption(closure_status.code())) {
      return closure_status;
    }
    // An interrupted Extend leaves a valid (merely under-extended) FD set:
    // RHS growth is monotone, so every derivation made so far stands.
    stats.completion = closure_status;
    stats.skipped.push_back(
        "closure: deadline exceeded; FDs extended only partially");
  }
  stats.closure_s = watch.ElapsedSeconds();
  stats.avg_rhs_after = fds.AverageRhsSize();
  stats.phases.Record("closure", stats.closure_s, fds.size());

  // --- schema setup ---
  int universe = proto.universe_size();
  std::vector<std::string> names(static_cast<size_t>(universe));
  for (int c = 0; c < proto.num_columns(); ++c) {
    names[static_cast<size_t>(proto.attribute_ids()[static_cast<size_t>(c)])] =
        proto.column(c).name();
  }
  result.schema = Schema(std::move(names));
  result.schema.AddRelation(RelationSchema(input_name, all_attrs));

  // Attributes with NULLs (their FDs cannot yield primary keys, Alg. 4).
  // Column::has_null reads the dictionary, which all shards share, so the
  // first shard answers for the whole instance.
  AttributeSet nullable(universe);
  for (int c = 0; c < proto.num_columns(); ++c) {
    if (proto.column(c).has_null()) {
      nullable.Set(proto.attribute_ids()[static_cast<size_t>(c)]);
    }
  }

  // --- (3)-(6) decomposition loop ---
  bool first_key_derivation = true;
  bool first_violation_detection = true;
  int split_counter = 1;
  std::deque<int> worklist;
  worklist.push_back(0);
  while (!worklist.empty()) {
    Status interrupted = CheckRunContext(ctx);
    if (!interrupted.ok()) {
      if (interrupted.code() == StatusCode::kCancelled) return interrupted;
      // Deadline: the schema produced so far is a correct (if unfinished)
      // decomposition — every split preserved the instance losslessly.
      stats.completion = interrupted;
      stats.skipped.push_back(
          "decomposition: deadline exceeded with " +
          std::to_string(worklist.size() + 1) +
          " relations left to check; schema may retain normal-form "
          "violations");
      break;
    }
    int rel_index = worklist.front();
    worklist.pop_front();
    const RelationSchema& rel = result.schema.relation(rel_index);
    const AttributeSet& attrs = rel.attributes();

    // (3) key derivation on the FDs projected into this relation.
    watch.Restart();
    FdSet projected = ProjectFds(fds, attrs);
    std::vector<AttributeSet> keys = DeriveKeys(projected, attrs);
    if (options_.normal_form == NormalForm::kSecondNf) {
      // 2NF judges *partial* dependencies against candidate keys, and not
      // every key is FD-derivable (paper §5's join-key example) — augment
      // with the instance's minimal uniques (UCC discovery needs the
      // relation in one piece, so this path stitches the working set).
      std::optional<RelationData> stitched;
      const std::vector<RelationData>& w =
          working[static_cast<size_t>(rel_index)];
      const RelationData& instance =
          w.size() == 1 ? w.front()
                        : stitched.emplace(ConcatenateShards(w, rel.name()));
      for (AttributeSet& ucc : DiscoverMinimalUccs(instance)) {
        if (std::find(keys.begin(), keys.end(), ucc) == keys.end()) {
          keys.push_back(std::move(ucc));
        }
      }
    }
    double key_time = watch.ElapsedSeconds();
    stats.key_derivation_total_s += key_time;
    if (first_key_derivation) {
      stats.key_derivation_first_s = key_time;
      stats.num_fd_keys = keys.size();
      first_key_derivation = false;
    }

    // (4) violating-FD identification.
    watch.Restart();
    std::vector<Fd> violations = DetectViolatingFds(
        projected, keys, rel, nullable, options_.normal_form);
    double violation_time = watch.ElapsedSeconds();
    stats.violation_detection_total_s += violation_time;
    if (first_violation_detection) {
      stats.violation_detection_first_s = violation_time;
      first_violation_detection = false;
    }
    if (violations.empty()) continue;

    // (5) violating-FD selection. The scorer reads the working set in shard
    // form; its features equal the concatenated relation's features.
    std::vector<const RelationData*> scorer_shards;
    scorer_shards.reserve(working[static_cast<size_t>(rel_index)].size());
    for (const RelationData& shard : working[static_cast<size_t>(rel_index)]) {
      scorer_shards.push_back(&shard);
    }
    ConstraintScorer scorer(std::move(scorer_shards));
    std::vector<ScoredFd> ranked = scorer.RankFds(violations);
    int choice = advisor_->ChooseViolatingFd(result.schema, rel_index, ranked);
    if (choice < 0 || choice >= static_cast<int>(ranked.size())) {
      DecisionRecord record;
      record.kind = DecisionRecord::Kind::kSplitDeclined;
      record.relation = rel.name();
      record.num_candidates = static_cast<int>(ranked.size());
      result.decisions.push_back(std::move(record));
      continue;
    }
    Fd chosen = ranked[static_cast<size_t>(choice)].fd;
    // §7.2 (last paragraph): RHS attributes that other violating FDs also
    // cover may be removed by the user so a later split claims them.
    AttributeSet shared_rhs(chosen.rhs.capacity());
    for (size_t i = 0; i < ranked.size(); ++i) {
      if (i == static_cast<size_t>(choice)) continue;
      shared_rhs.UnionWith(ranked[i].fd.rhs.Intersect(chosen.rhs));
    }
    if (!shared_rhs.Empty()) {
      AttributeSet removed = advisor_->TrimSplitRhs(result.schema, rel_index,
                                                    chosen, shared_rhs);
      removed.IntersectWith(shared_rhs);
      AttributeSet trimmed = chosen.rhs.Difference(removed);
      // Never let the user empty the split entirely.
      if (!trimmed.Empty()) chosen.rhs = trimmed;
    }
    {
      DecisionRecord record;
      record.kind = DecisionRecord::Kind::kSplit;
      record.relation = rel.name();
      record.chosen_fd = chosen;
      record.score = ranked[static_cast<size_t>(choice)].score.total;
      record.rank = choice;
      record.num_candidates = static_cast<int>(ranked.size());
      result.decisions.push_back(std::move(record));
    }

    // (6) decomposition.
    if (stats.decompositions >= options_.max_decompositions) {
      return Status::Internal("decomposition limit exceeded");
    }
    ++stats.decompositions;
    std::string r2_name =
        "R" + std::to_string(++split_counter) + "_" +
        result.schema.attribute_name(chosen.lhs.First());
    std::vector<RelationData> r1_shards;
    std::vector<RelationData> r2_shards;
    {
      const std::vector<RelationData>& parent =
          working[static_cast<size_t>(rel_index)];
      if (parent.size() == 1) {
        Decomposition decomposition =
            DecomposeData(parent.front(), chosen, r2_name);
        r1_shards.push_back(std::move(decomposition.r1));
        r2_shards.push_back(std::move(decomposition.r2));
      } else {
        // Out-of-core: project shard by shard with cross-shard dedup. Only
        // the dedup set is transient working memory — that peak is what the
        // memory budget governs.
        size_t transient_bytes = 0;
        ShardedDecomposition decomposition =
            DecomposeDataShards(parent, chosen, r2_name, &transient_bytes);
        stats.peak_projection_buffer_bytes =
            std::max(stats.peak_projection_buffer_bytes, transient_bytes);
        r1_shards = std::move(decomposition.r1);
        r2_shards = std::move(decomposition.r2);
      }
    }
    int r2_index =
        DecomposeSchema(&result.schema, rel_index, chosen, r2_name);
    working[static_cast<size_t>(rel_index)] = std::move(r1_shards);
    working.push_back(std::move(r2_shards));

    // New keys may have appeared in both parts — re-enter the loop at (3).
    worklist.push_back(rel_index);
    worklist.push_back(r2_index);
  }

  // Materialize the final instances (the projections' transient working
  // memory is already released; stitching shares dictionaries, so this
  // copies code vectors, not strings).
  result.relations.reserve(working.size());
  for (size_t i = 0; i < working.size(); ++i) {
    const std::string& rel_name =
        result.schema.relation(static_cast<int>(i)).name();
    if (working[i].size() == 1) {
      result.relations.push_back(std::move(working[i].front()));
      result.relations.back().set_name(rel_name);
    } else {
      result.relations.push_back(ConcatenateShards(working[i], rel_name));
    }
  }
  working.clear();

  // --- (7) primary-key selection ---
  Status key_interrupted =
      options_.select_primary_keys ? CheckRunContext(ctx) : Status::OK();
  if (!key_interrupted.ok() &&
      key_interrupted.code() == StatusCode::kCancelled) {
    return key_interrupted;
  }
  if (options_.select_primary_keys && !key_interrupted.ok()) {
    stats.completion = key_interrupted;
    stats.skipped.push_back(
        "primary_key_selection: deadline exceeded; key-less relations left "
        "without primary keys");
  } else if (options_.select_primary_keys) {
    for (size_t i = 0; i < result.relations.size(); ++i) {
      RelationSchema* rel = result.schema.mutable_relation(static_cast<int>(i));
      if (rel->has_primary_key()) continue;
      const RelationData& data = result.relations[i];

      // Keys derivable from the FDs, minus those with NULLable attributes.
      FdSet projected = ProjectFds(fds, rel->attributes());
      std::vector<AttributeSet> keys = DeriveKeys(projected, rel->attributes());
      std::vector<AttributeSet> candidates;
      for (const AttributeSet& key : keys) {
        if (!key.Intersects(nullable)) candidates.push_back(key);
      }
      if (candidates.empty()) {
        // Fall back to full key discovery (DUCC-style); the relation is
        // small at this stage, which keeps this NP-hard step cheap (§5).
        candidates = DiscoverMinimalUccs(data);
      }
      if (candidates.empty()) continue;

      ConstraintScorer scorer(data);
      std::vector<ScoredKey> ranked = scorer.RankKeys(candidates);
      int choice = advisor_->ChoosePrimaryKey(result.schema,
                                              static_cast<int>(i), ranked);
      DecisionRecord record;
      record.relation = rel->name();
      record.num_candidates = static_cast<int>(ranked.size());
      if (choice >= 0 && choice < static_cast<int>(ranked.size())) {
        rel->set_primary_key(ranked[static_cast<size_t>(choice)].key);
        record.kind = DecisionRecord::Kind::kPrimaryKey;
        record.chosen_key = ranked[static_cast<size_t>(choice)].key;
        record.score = ranked[static_cast<size_t>(choice)].score.total;
        record.rank = choice;
      } else {
        record.kind = DecisionRecord::Kind::kPrimaryKeyDeclined;
      }
      result.decisions.push_back(std::move(record));
    }
  }

  result.extended_fds = std::move(fds);

  // --- correctness audit (opt-in; read-only, never fails the run) ---
  if (options_.audit) {
    watch.Restart();
    DecompositionAuditor auditor(options_.audit_options);
    result.audit = auditor.Audit(*audit_input, result, options_.normal_form,
                                 options_.discovery.max_lhs_size);
    stats.phases.Record("audit", watch.ElapsedSeconds(),
                        result.audit->issues.size());
  }

  stats.total_s = total_watch.ElapsedSeconds();
  stats.phases.Record("key_derivation", stats.key_derivation_total_s);
  stats.phases.Record("violation_detection", stats.violation_detection_total_s);
  return result;
}

}  // namespace normalize
