// Partitioned FD discovery with merge-and-validate. Any single-node backend
// (hyfd, tane, ...) runs independently on each row-range shard; the per-shard
// minimal covers are then merged with the classic distributed-FD rule: an FD
// holds globally only if it survives validation against every shard AND
// against row pairs that straddle shards. The merge seeds a candidate tree
// from shard 0's cover (every globally valid FD holds on shard 0, so the
// tree starts as a positive cover) and runs HyFD's level-wise
// specialization-on-violation loop:
//
//   * within-shard tier: a shard whose minimal cover does not imply the
//     candidate must contain a violating pair — found with the backend's
//     PLI validation primitive on that shard alone;
//   * cross-shard tier: candidates valid in every shard are checked by
//     hashing LHS code tuples across all shards (codes agree because the
//     shards share value dictionaries), restricted to rows whose LHS codes
//     appear in at least two shards (only those can form straddling pairs).
//
// Before any validation, the shards exchange evidence (see
// ShardOptions::exchange_evidence): each shard's exported negative cover —
// which fully determines its minimal cover, so it refutes every candidate
// some shard disagrees with — plus focused samples of row pairs straddling
// shard boundaries (the first row of every shared dictionary code in
// consecutive shards) specialize the seed tree up front. Validation then
// confirms mostly-true candidates instead of discovering violations one
// specialize-and-resweep at a time.
//
// Violations specialize the cover (SpecializeCover/InduceFromAgreeSet)
// exactly as in HyFD, so the result is the complete set of minimal FDs of
// the concatenated relation — bit-identical to a single-shot run, for every
// shard count, shard order, and thread count (the minimal cover is unique).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/stopwatch.hpp"
#include "discovery/fd_discovery.hpp"
#include "fd/fd.hpp"
#include "pli/pli.hpp"
#include "relation/relation_data.hpp"
#include "shard/shard_options.hpp"

namespace normalize {

/// Receives checkpoint-worthy state during a discovery run. All calls
/// happen on the coordinating thread, strictly between merge sweeps or
/// after the backend run (never while workers run). A non-OK return aborts
/// the run with that status — a checkpoint that cannot be written must not
/// silently evaporate.
class DiscoveryCheckpointSink {
 public:
  virtual ~DiscoveryCheckpointSink() = default;

  /// After an interrupted single-shard run: the backend's agree-set
  /// evidence (its negative cover, which fully determines the positive
  /// cover), imported again by a resumed run via
  /// DiscoveryResumeState::agree_sets.
  virtual Status OnEvidence(const std::vector<AttributeSet>& agree_sets) = 0;

  /// After the per-shard fan-out completes: every shard's minimal cover and
  /// the PLI caches the merge will validate against. Covers are in global
  /// attribute space (as Discover() returns them); PLI entries may be null
  /// for backends that do not expose their cache.
  virtual Status OnShardState(
      const std::vector<FdSet>& shard_covers,
      const std::vector<std::shared_ptr<const PliCache>>& shard_plis) = 0;

  /// After merge level `level` is fully validated: the candidate tree's FDs
  /// (local column space, pre-minimization — this is resume state, not a
  /// result) and all agree-set evidence seen so far, sorted canonically.
  virtual Status OnMergeLevel(int level, const std::vector<Fd>& frontier_fds,
                              const std::vector<AttributeSet>& agree_sets) = 0;
};

/// Previously checkpointed state to resume a discovery run from.
/// Default-constructed = nothing to resume (fresh run).
struct DiscoveryResumeState {
  /// Per-shard minimal covers (global attribute space). Non-empty skips the
  /// per-shard fan-out; the size must match the shard count.
  std::vector<FdSet> shard_covers;
  /// Per-shard single-column PLIs; an empty inner vector means "rebuild
  /// this shard's PLIs". Ignored unless sized like the shard count.
  std::vector<std::vector<Pli>> shard_plis;
  /// Merge frontier: the candidate tree's FDs (local column space) after
  /// the last fully validated level, plus the evidence that shaped it.
  bool has_frontier = false;
  std::vector<Fd> frontier_fds;
  int last_complete_level = -1;
  /// With a frontier, the merge's evidence; for a single shard, the
  /// backend's evidence to import before it runs.
  std::vector<AttributeSet> agree_sets;
};

class ShardedDiscovery {
 public:
  struct Stats {
    size_t shard_count = 0;
    /// Unary FDs in the seed cover (shard 0's minimal cover).
    size_t seed_fds = 0;
    /// Merge-phase candidate validations and how many failed.
    size_t validated_candidates = 0;
    size_t invalid_candidates = 0;
    /// Failed candidates by violation locality: inside one shard vs. a row
    /// pair straddling two shards (the case a naive per-shard union misses).
    size_t within_shard_violations = 0;
    size_t cross_shard_violations = 0;
    /// Evidence-exchange pre-pruning (ShardOptions::exchange_evidence):
    /// distinct agree sets applied to the seed cover before validation —
    /// per-shard negative covers plus cross-shard boundary samples.
    size_t exchanged_evidence_sets = 0;
    /// Of those, the distinct agree sets harvested by comparing row pairs
    /// that straddle shards (per shared dictionary code), and the number of
    /// such comparisons performed.
    size_t cross_shard_sampled_sets = 0;
    size_t cross_shard_comparisons = 0;
    /// Shards (beyond the seed) whose backend exported no agree-set
    /// evidence while exchange_evidence was on. Backends without evidence
    /// tracking (e.g. Tane, Naive) silently return {} from ExportEvidence,
    /// so their negative covers cannot pre-prune the seed tree and the
    /// merge pays for their disagreements one validation violation at a
    /// time — this counter makes that silent skip visible.
    size_t evidence_less_shards = 0;
    /// Shards whose single-column PLIs were reused (backend handoff or
    /// checkpoint resume) instead of rebuilt for the merge.
    size_t plis_reused = 0;
    /// The per-shard fan-out was skipped: covers came from a checkpoint.
    bool resumed_covers = false;
    /// The merge loop started past level 0: the frontier came from a
    /// checkpoint.
    bool resumed_frontier = false;
  };

  /// `backend` is any MakeFdDiscovery() name; `options` configures the
  /// per-shard runs and the merge (max_lhs_size, external pool).
  /// `shard_options.threads` drives the shard fan-out and merge sweeps;
  /// `shard_options.shard_rows` only matters for the slicing overload.
  explicit ShardedDiscovery(std::string backend = "hyfd",
                            FdDiscoveryOptions options = {},
                            ShardOptions shard_options = {});

  /// Discovers the minimal FDs of the concatenation of `shards`. The shards
  /// must share one schema and per-column value dictionaries (as produced by
  /// ShardedCsvReader or SliceIntoShards). A single shard degenerates to a
  /// plain backend call.
  Result<FdSet> Discover(const std::vector<RelationData>& shards);

  /// Convenience: slices `data` into shard_options.shard_rows-row shards
  /// (sharing its dictionaries) and discovers over them. shard_rows == 0 or
  /// >= num_rows makes a single shard.
  Result<FdSet> Discover(const RelationData& data);

  const Stats& stats() const { return stats_; }
  const PhaseMetrics& phase_metrics() const { return phase_metrics_; }

  /// Installs a checkpoint sink (not owned; may be null to detach). A
  /// multi-shard Discover() reports its shard state and every validated
  /// merge level; a single-shard one reports its backend's evidence when
  /// interrupted.
  void SetCheckpointSink(DiscoveryCheckpointSink* sink) { sink_ = sink; }

  /// Installs resume state consumed by the next Discover() call. Covers
  /// sized unlike the shard count fail a multi-shard call with
  /// kFailedPrecondition rather than silently rediscovering.
  void SetResumeState(DiscoveryResumeState state) {
    resume_ = std::move(state);
  }

  /// OK if the last Discover() ran to completion; kCancelled /
  /// kDeadlineExceeded when the run was interrupted (via
  /// options.context) and the returned FdSet is a sound partial cover —
  /// every emitted FD is a verified-minimal FD of the concatenated
  /// relation. Mirrors FdDiscovery::completion_status().
  const Status& completion_status() const { return completion_; }

 private:
  /// Mirrors stats_ and phase_metrics_ into options_.metrics (no-op when
  /// null). Runs via a scope guard when the multi-shard Discover() unwinds,
  /// so interrupted runs report their partial counters too.
  void PublishObservability() const;

  // Concurrency contract (phase discipline, not locks — see
  // common/thread_annotations.hpp): all merge state below is written only by
  // the coordinating thread. The parallel sweeps inside Discover() hand the
  // workers immutable inputs (shards, per-shard covers, PLI caches) plus
  // disjoint per-unit result slots, and every sweep joins at a ParallelFor
  // barrier before the coordinator folds the slots into stats_ / the cover
  // tree. Nothing here is touched while workers run, so no field carries a
  // capability.
  std::string backend_;
  FdDiscoveryOptions options_;
  ShardOptions shard_options_;
  Stats stats_;
  PhaseMetrics phase_metrics_;
  Status completion_;
  DiscoveryCheckpointSink* sink_ = nullptr;
  DiscoveryResumeState resume_;
};

}  // namespace normalize
