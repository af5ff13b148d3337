// CheckpointManager: the coordinator that turns pipeline events into
// snapshot files and snapshot files back into resume state. One manager
// instance owns one checkpoint directory for one run configuration
// (identified by a CheckpointFingerprint — loads verify it so a directory
// can never silently resume a different run).
//
// Directory layout (each file an atomic snapshot, see snapshot.hpp):
//
//   ingest.snap, shard_<i>.snap, pli_<i>.snap   — ShardStore (rows + PLIs)
//   covers.snap      per-shard minimal covers after the discovery fan-out
//   frontier.snap    merge candidate tree + evidence after each level
//   evidence.snap    an interrupted one-shard run's backend agree-set
//                    evidence (negative cover), from either driver
//   cover.snap       the final global minimal cover
//   interrupted.snap why the previous run stopped (written by the hook)
//
// The manager implements both checkpoint interfaces of the pipeline:
// DiscoveryCheckpointSink (called by ShardedDiscovery between merge sweeps
// and when a one-shard run is interrupted) and CheckpointHook (called via
// RunContext::NotifyInterruption when an interruption ends the run). Sink
// calls happen on the coordinating thread; the hook may race with them in
// principle, so its latch is mutex-guarded.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/run_context.hpp"
#include "persist/checkpoint_options.hpp"
#include "persist/shard_store.hpp"
#include "persist/state_io.hpp"
#include "shard/sharded_discovery.hpp"

namespace normalize {

/// The durable image of a live normalization service at one checkpoint tick
/// (live.snap): the full append-only row log — dead rows included, so the
/// RowId space WAL records address is reproduced exactly — its liveness
/// mask, the published cover plus witnessed evidence, and the sequence
/// high-water mark the image covers (WAL records at or below it are
/// truncated away after the save).
struct LiveServiceState {
  RelationData log;
  /// One byte per log row: 0 dead, 1 live.
  std::string live_mask;
  uint64_t epoch = 0;
  uint64_t last_applied_seq = 0;
  uint64_t batches_applied = 0;
  FdSet cover;
  /// Witnessed negative cover (sorted agree sets). Recovery re-derives its
  /// own evidence via Initialize(); the persisted copy documents what the
  /// checkpointed cover was built from and feeds integrity cross-checks.
  std::vector<std::pair<AttributeSet, std::pair<RowId, RowId>>> evidence;
};

class CheckpointManager : public DiscoveryCheckpointSink,
                          public CheckpointHook {
 public:
  /// Creates the checkpoint directory if needed (best-effort: a directory
  /// that cannot be created surfaces as a precise write error on the first
  /// snapshot instead).
  CheckpointManager(CheckpointOptions options,
                    CheckpointFingerprint fingerprint);

  const CheckpointOptions& options() const { return options_; }
  const CheckpointFingerprint& fingerprint() const { return fingerprint_; }
  ShardStore& shard_store() { return store_; }

  // --- ingest stage ---

  /// Persists the ingested shards (rows + shared dictionaries) so a resumed
  /// run skips the CSV re-parse.
  Status SaveIngest(const ShardedRelation& sharded) {
    return store_.SaveSharded(sharded, fingerprint_);
  }
  /// kNotFound when no ingest was checkpointed (callers ingest fresh).
  Result<ShardedRelation> LoadIngest() {
    return store_.LoadSharded(fingerprint_);
  }

  // --- discovery stage (DiscoveryCheckpointSink) ---

  Status OnShardState(
      const std::vector<FdSet>& shard_covers,
      const std::vector<std::shared_ptr<const PliCache>>& shard_plis) override;
  Status OnMergeLevel(int level, const std::vector<Fd>& frontier_fds,
                      const std::vector<AttributeSet>& agree_sets) override;
  Status OnEvidence(const std::vector<AttributeSet>& agree_sets) override;

  /// Assembles whatever discovery state the directory holds into a resume
  /// state for ShardedDiscovery: covers (skips the fan-out), per-shard PLIs
  /// (skips the rebuild), and the merge frontier (skips validated levels);
  /// for one shard, the backend's evidence (evidence.snap). A directory
  /// with none of it yields a default state (fresh run); corruption and
  /// fingerprint mismatches propagate as errors.
  Result<DiscoveryResumeState> LoadDiscoveryResume(size_t shard_count);

  /// The final global minimal cover — once this exists, a resumed run skips
  /// discovery entirely (the cover uniquely determines the decomposition).
  Status SaveCover(const FdSet& cover);
  /// kNotFound when no final cover was checkpointed.
  Result<FdSet> LoadCover();

  // --- live service stage ---

  /// Persists the service image atomically (live.snap, tmp + rename): a
  /// crash mid-save leaves the previous image intact, and a crash between
  /// the save and the WAL truncation only makes replay skip already-covered
  /// sequence numbers.
  Status SaveLiveState(const LiveServiceState& state);
  /// kNotFound when no live image exists (fresh service start); corruption
  /// is kDataLoss and a fingerprint mismatch kFailedPrecondition, exactly
  /// like the pipeline snapshots.
  Result<LiveServiceState> LoadLiveState();

  // --- interruption hook (CheckpointHook) ---

  /// Records why the run stopped (interrupted.snap). Idempotent: only the
  /// first interruption of a run is recorded. Write failures are swallowed —
  /// the record is a courtesy for the next run's logs, and the hook must
  /// never turn an orderly interruption into a crash path.
  void OnInterruption(const Status& why) override;

  /// True once OnInterruption has fired for this run.
  bool interruption_noted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return interruption_noted_;
  }

 private:
  CheckpointOptions options_;
  CheckpointFingerprint fingerprint_;
  ShardStore store_;
  mutable std::mutex mu_;
  bool interruption_noted_ = false;
};

}  // namespace normalize
