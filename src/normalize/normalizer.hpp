// Normalize — the paper's end-to-end algorithm (Figure 1). Orchestrates:
//   (1) FD discovery            -> discovery/
//   (2) closure calculation     -> closure/
//   (3) key derivation          -> key_derivation
//   (4) violating-FD detection  -> violation_detection
//   (5) violating-FD selection  -> scoring + Advisor
//   (6) schema decomposition    -> decomposition
//   (7) primary-key selection   -> scoring + Advisor (+ UCC discovery)
// Steps (3)-(6) loop until no relation violates the target normal form.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit_report.hpp"
#include "common/result.hpp"
#include "common/run_context.hpp"
#include "common/stopwatch.hpp"
#include "discovery/fd_discovery.hpp"
#include "fd/fd.hpp"
#include "normalize/advisor.hpp"
#include "normalize/violation_detection.hpp"
#include "persist/checkpoint_options.hpp"
#include "relation/csv.hpp"
#include "relation/relation_data.hpp"
#include "relation/schema.hpp"
#include "shard/shard_options.hpp"

namespace normalize {

class CheckpointManager;
struct DiscoveryResumeState;
class ThreadPool;

struct NormalizerOptions {
  /// FD discovery algorithm: "hyfd" (default), "tane", "fdep", "naive".
  std::string discovery_algorithm = "hyfd";
  FdDiscoveryOptions discovery;
  /// Closure algorithm: "optimized" (default), "improved", "naive".
  std::string closure_algorithm = "optimized";
  /// Threads for the closure FD loop (1 = serial).
  int closure_threads = 1;
  /// Target normal form (BCNF by default).
  NormalForm normal_form = NormalForm::kBcnf;
  /// Run component (7): assign primary keys to key-less relations.
  bool select_primary_keys = true;
  /// Safety bound on the number of decomposition steps.
  int max_decompositions = 100000;
  /// Sharded / out-of-core pipeline (src/shard/): shard_rows > 0 makes
  /// Normalize() run partitioned FD discovery over row-range shards of the
  /// input, and NormalizeCsvFile() stream its input under
  /// shard.memory_budget_bytes. The discovered FD set — and hence the
  /// normalization result — is identical to the unsharded run.
  ShardOptions shard;
  /// Robustness context threaded through every stage (not owned; null = no
  /// limits). Cancellation aborts the run with kCancelled. A deadline makes
  /// it degrade instead of fail: discovery keeps its sound partial cover
  /// (or reruns bounded, see degrade_on_deadline), later stages run to
  /// completion on what discovery produced, and NormalizationStats records
  /// the interruption and everything that was skipped.
  const RunContext* context = nullptr;
  /// Retry schedule for transient (kUnavailable) shard-ingest I/O errors in
  /// NormalizeCsvFile().
  RetryPolicy ingest_retry;
  /// When full FD discovery exceeds the deadline, rerun it once with
  /// max_lhs_size bounded to this value — the paper's memory-pruning rule
  /// doubling as a time-pruning rule. 0 disables the fallback (the partial
  /// cover of the interrupted run is used instead). The degraded pass runs
  /// without a deadline but stays cancellable.
  int degraded_max_lhs = 2;
  bool degrade_on_deadline = true;
  /// Pick the degraded max_lhs_size from the interrupted run's per-level
  /// phase timings (PickDegradedMaxLhs) instead of the degraded_max_lhs
  /// constant. Falls back to the constant when the interrupted run produced
  /// no usable per-level records (e.g. it died in sampling).
  bool adaptive_degradation = true;
  /// Persistent pipeline state (src/persist/): with a checkpoint directory
  /// set, NormalizeCsvFile() and Normalize() persist each completed stage
  /// (ingest shards, per-shard covers + PLIs, merge frontier or a one-shard
  /// run's evidence, final cover), and an interrupted run returns its
  /// interruption instead of degrading — rerunning with
  /// `checkpoint.resume` continues from the last completed stage and
  /// produces the schema an uninterrupted run would have.
  CheckpointOptions checkpoint;
  /// Run the correctness auditor (audit/decomposition_auditor.hpp) on the
  /// finished result: chase-based lossless-join proof, instance rejoin,
  /// normal-form compliance of every output relation, and cover soundness.
  /// The report lands in NormalizationResult::audit; a failed audit never
  /// fails the run (callers decide — the CLI maps it to a nonzero exit).
  bool audit = false;
  AuditOptions audit_options;
};

/// Per-component wall-clock times and counters (the paper's Table 3 rows).
struct NormalizationStats {
  size_t num_fds = 0;       // minimal (unary) FDs discovered
  size_t num_fd_keys = 0;   // keys derivable from the extended FDs ("FD-Keys")
  double avg_rhs_before = 0.0;  // aggregated-FD RHS size before closure
  double avg_rhs_after = 0.0;   // ... and after (§8.2 reports this growth)

  double fd_discovery_s = 0.0;
  double closure_s = 0.0;
  double key_derivation_first_s = 0.0;       // first call (Table 3 semantics)
  double violation_detection_first_s = 0.0;  // first call
  double key_derivation_total_s = 0.0;
  double violation_detection_total_s = 0.0;
  double total_s = 0.0;

  int decompositions = 0;

  /// Fine-grained phase breakdown: the discovery algorithm's internal
  /// phases (prefixed "discovery/") plus the pipeline components above.
  /// Rendered by normalize/report and the benchmarks.
  PhaseMetrics phases;

  /// OK for a complete run; kDeadlineExceeded when the deadline forced the
  /// pipeline to degrade or skip work (`skipped` lists what). A cancelled
  /// run returns an error instead of a result, so kCancelled never appears
  /// here.
  Status completion;
  /// Transient shard-ingest read failures that were retried successfully.
  size_t ingest_retries = 0;
  /// FD discovery was rerun with a bounded max_lhs_size after the full run
  /// exceeded the deadline.
  bool degraded_discovery = false;
  /// The adaptively chosen bound of that rerun (PickDegradedMaxLhs); 0 when
  /// the constant NormalizerOptions::degraded_max_lhs was used instead.
  int adaptive_degraded_max_lhs = 0;
  /// Human-readable notes on everything the deadline forced the run to
  /// skip or curtail, in pipeline order.
  std::vector<std::string> skipped;

  /// Peak size of the streaming ingest text buffer (NormalizeCsvFile; stays
  /// within ShardOptions::memory_budget_bytes).
  size_t peak_ingest_buffer_bytes = 0;
  /// Peak transient working memory of one out-of-core decomposition step —
  /// the cross-shard dedup set of ProjectShardsDistinct, released after each
  /// step. Like the ingest buffer, this is the number the memory budget
  /// governs; the dictionary-encoded shards themselves are not counted
  /// (matching the sharded-ingest budget semantics).
  size_t peak_projection_buffer_bytes = 0;
  /// Per-shard PLI sets served from a checkpoint (or the discovery handoff)
  /// instead of being rebuilt.
  size_t plis_reused = 0;
  /// This run resumed from a checkpoint directory; `resumed_stages` lists
  /// the stages that were loaded instead of recomputed, in pipeline order.
  bool resumed = false;
  std::vector<std::string> resumed_stages;
};

/// Picks the LHS-size bound for the degraded discovery rerun from the
/// interrupted run's per-level phase records — "validation_L<k>" (HyFD),
/// "merge_validation_L<k>" (sharded merge), "compute_deps_L<k>" (TANE),
/// with or without the "discovery/" prefix, where k is the LHS size.
/// Returns the largest bound whose cumulative per-level time still fits in
/// half the deadline budget (the rest pays for sampling, induction, and the
/// stages after discovery); 0 when no record supports even level 1 — the
/// caller then falls back to the NormalizerOptions::degraded_max_lhs
/// constant.
int PickDegradedMaxLhs(const PhaseMetrics& discovery_phases,
                       double budget_seconds);

/// One decision taken during normalization — the audit trail of the
/// (semi-)automatic process, whether the advisor was a human or the
/// top-ranked default.
struct DecisionRecord {
  enum class Kind {
    kSplit,             // a violating FD was chosen for decomposition
    kSplitDeclined,     // the advisor rejected all split candidates
    kPrimaryKey,        // a primary key was assigned in component (7)
    kPrimaryKeyDeclined
  };

  Kind kind;
  std::string relation;     // relation name at decision time
  Fd chosen_fd;             // kSplit only
  AttributeSet chosen_key;  // kPrimaryKey only
  double score = 0.0;       // total score of the chosen candidate
  int rank = 0;             // position picked in the ranking (0 = top)
  int num_candidates = 0;

  std::string ToString(const std::vector<std::string>& attribute_names) const;
};

/// The normalized schema with its per-relation instances (parallel vectors:
/// relations[i] is the data of schema.relation(i)).
struct NormalizationResult {
  Schema schema;
  std::vector<RelationData> relations;
  FdSet extended_fds;  // the global closure, for inspection/reports
  /// The minimal cover exactly as discovery produced it, before closure
  /// extension. The auditor's minimality/completeness checks need this form
  /// (extended RHSs are intentionally not per-attribute LHS-minimal).
  FdSet discovered_fds;
  NormalizationStats stats;
  std::vector<DecisionRecord> decisions;  // audit trail, in order
  /// Present iff NormalizerOptions::audit was set.
  std::optional<AuditReport> audit;
};

/// The end-to-end normalization algorithm.
class Normalizer {
 public:
  /// `advisor` == nullptr selects the fully automatic mode (AutoAdvisor).
  explicit Normalizer(NormalizerOptions options = {},
                      Advisor* advisor = nullptr);

  ~Normalizer();

  /// Normalizes a single relational instance into the target normal form.
  Result<NormalizationResult> Normalize(const RelationData& input);

  /// Components (2)-(7) on a pre-discovered minimal cover of `input` —
  /// the re-normalization path of the incremental engine (src/live/): a
  /// DeltaFdMaintainer keeps the cover exact under churn, and every
  /// published epoch can be turned into a fresh normalized schema without
  /// re-running discovery. `cover` must be the complete set of minimal FDs
  /// of `input` in global attribute space (a CoverSnapshot::cover or any
  /// Discover() result); the output is then identical to Normalize(input)
  /// under the same options, minus the discovery time.
  Result<NormalizationResult> RenormalizeWithCover(const RelationData& input,
                                                   FdSet cover);

  /// Streams a CSV file through the sharded ingest (text buffer bounded by
  /// options.shard.memory_budget_bytes), discovers FDs per shard with
  /// merge-and-validate, and normalizes. With shard_rows == 0 this is
  /// equivalent to CsvReader::ReadFile + Normalize.
  Result<NormalizationResult> NormalizeCsvFile(
      const std::string& path, const CsvOptions& csv_options = {});

 private:
  /// The lazily created process-wide pool shared by discovery, closure, and
  /// sharded discovery — repeated Normalize() calls reuse one set of worker
  /// threads. Returns nullptr when every thread knob resolves to serial.
  ThreadPool* SharedPool();

  /// Records component-(1) statistics common to all discovery paths.
  void RecordDiscoveryStats(NormalizationStats* stats, const FdSet& fds,
                            double seconds,
                            const PhaseMetrics& discovery_phases);

  /// The stage every driver ends in: component (1) on `shards`, then
  /// FinishNormalization. Resumes the final cover, or else the discovery
  /// state, from `checkpoint` (null = not checkpointed); runs discovery;
  /// then checkpoints the cover, or without a checkpoint walks the
  /// deadline-degradation ladder. `ctx` is the run's context, carrying the
  /// checkpoint hook.
  Result<NormalizationResult> DiscoverAndFinish(
      const std::string& input_name, std::vector<RelationData> shards,
      CheckpointManager* checkpoint, const RunContext* ctx,
      NormalizationResult result, const Stopwatch& total_watch);

  /// One ShardedDiscovery run over `shards` with `options` on the shared
  /// pool, reporting to `checkpoint` (may be null) and resuming `resume`.
  /// Records the discovery statistics; `completion` reports interruptions.
  Result<FdSet> RunDiscovery(const std::vector<RelationData>& shards,
                             FdDiscoveryOptions options,
                             CheckpointManager* checkpoint,
                             DiscoveryResumeState resume,
                             NormalizationStats* stats, Status* completion);

  /// The deadline-degradation ladder after discovery. `completion` is the
  /// discovery run's completion status; a bounded rerun goes over the same
  /// `shards`. Returns kCancelled to abort the run; otherwise OK, with
  /// `fds`/`stats` updated to the cover the pipeline should continue on.
  Status ApplyDiscoveryDegradation(Status completion,
                                   const std::vector<RelationData>& shards,
                                   FdSet* fds, NormalizationStats* stats);

  /// Components (2)-(7) on pre-discovered FDs; discovery statistics must
  /// already be recorded in result.stats. `input_shards` is the instance as
  /// dictionary-sharing row-range shards (a single shard = the in-memory
  /// path); with several shards the decomposition loop stays out-of-core
  /// (ProjectShardsDistinct), and relations are only concatenated for the
  /// final result — the output is bit-identical either way. `ctx` (may be
  /// null) is polled at stage boundaries: kCancelled aborts, a deadline
  /// curtails the decomposition loop / primary-key selection with notes in
  /// stats.skipped.
  Result<NormalizationResult> FinishNormalization(
      const std::string& input_name, std::vector<RelationData> input_shards,
      FdSet fds, NormalizationResult result, const Stopwatch& total_watch,
      const RunContext* ctx);

  NormalizerOptions options_;
  AutoAdvisor auto_advisor_;
  Advisor* advisor_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace normalize
