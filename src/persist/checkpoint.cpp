#include "persist/checkpoint.hpp"

#include <filesystem>
#include <system_error>
#include <utility>

#include "persist/snapshot.hpp"

namespace normalize {

CheckpointManager::CheckpointManager(CheckpointOptions options,
                                     CheckpointFingerprint fingerprint)
    : options_(std::move(options)),
      fingerprint_(std::move(fingerprint)),
      store_(options_.dir) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
}

namespace {

// Payload section ids (kFingerprintSectionId = 1 in every file).
constexpr uint32_t kSectionShardCovers = 2;
constexpr uint32_t kSectionFrontier = 3;
constexpr uint32_t kSectionEvidence = 4;
constexpr uint32_t kSectionCover = 5;
constexpr uint32_t kSectionInterruption = 6;
constexpr uint32_t kSectionLiveMeta = 7;
constexpr uint32_t kSectionLiveStore = 8;
constexpr uint32_t kSectionLiveCover = 9;
constexpr uint32_t kSectionLiveEvidence = 10;

}  // namespace

Status CheckpointManager::OnShardState(
    const std::vector<FdSet>& shard_covers,
    const std::vector<std::shared_ptr<const PliCache>>& shard_plis) {
  SnapshotEncoder enc;
  enc.PutU64(shard_covers.size());
  for (const FdSet& cover : shard_covers) EncodeFdSet(&enc, cover);
  SnapshotWriter writer;
  AddFingerprintSection(&writer, fingerprint_);
  writer.AddSection(kSectionShardCovers, std::move(enc).bytes());
  NORMALIZE_RETURN_IF_ERROR(
      writer.WriteToFile(options_.dir + "/covers.snap"));
  for (size_t s = 0; s < shard_plis.size(); ++s) {
    if (shard_plis[s] == nullptr) continue;  // backend exposes no cache
    NORMALIZE_RETURN_IF_ERROR(store_.SavePlis(s, *shard_plis[s]));
  }
  return Status::OK();
}

Status CheckpointManager::OnMergeLevel(
    int level, const std::vector<Fd>& frontier_fds,
    const std::vector<AttributeSet>& agree_sets) {
  SnapshotEncoder enc;
  enc.PutI32(level);
  EncodeFdVector(&enc, frontier_fds);
  EncodeAttributeSetVector(&enc, agree_sets);
  SnapshotWriter writer;
  AddFingerprintSection(&writer, fingerprint_);
  writer.AddSection(kSectionFrontier, std::move(enc).bytes());
  return writer.WriteToFile(options_.dir + "/frontier.snap");
}

Status CheckpointManager::OnEvidence(
    const std::vector<AttributeSet>& agree_sets) {
  SnapshotEncoder enc;
  EncodeAttributeSetVector(&enc, agree_sets);
  SnapshotWriter writer;
  AddFingerprintSection(&writer, fingerprint_);
  writer.AddSection(kSectionEvidence, std::move(enc).bytes());
  return writer.WriteToFile(options_.dir + "/evidence.snap");
}

Result<DiscoveryResumeState> CheckpointManager::LoadDiscoveryResume(
    size_t shard_count) {
  DiscoveryResumeState state;

  if (shard_count == 1) {
    // A one-shard run checkpoints nothing but its backend's evidence.
    auto evidence = OpenVerifiedSnapshot(options_.dir + "/evidence.snap",
                                         fingerprint_);
    if (!evidence.ok()) {
      if (evidence.status().code() == StatusCode::kNotFound) return state;
      return evidence.status();
    }
    NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                               evidence->Section(kSectionEvidence));
    SnapshotDecoder dec(bytes);
    NORMALIZE_ASSIGN_OR_RETURN(state.agree_sets,
                               DecodeAttributeSetVector(&dec));
    NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
    return state;
  }

  auto covers = OpenVerifiedSnapshot(options_.dir + "/covers.snap",
                                     fingerprint_);
  if (!covers.ok()) {
    if (covers.status().code() == StatusCode::kNotFound) return state;
    return covers.status();
  }
  {
    NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                               covers->Section(kSectionShardCovers));
    SnapshotDecoder dec(bytes);
    NORMALIZE_ASSIGN_OR_RETURN(uint64_t count, dec.GetU64());
    if (count != shard_count) {
      return Status::FailedPrecondition(
          "checkpointed covers describe " + std::to_string(count) +
          " shards but the resumed ingest has " + std::to_string(shard_count));
    }
    state.shard_covers.reserve(shard_count);
    for (uint64_t s = 0; s < count; ++s) {
      NORMALIZE_ASSIGN_OR_RETURN(FdSet cover, DecodeFdSet(&dec));
      state.shard_covers.push_back(std::move(cover));
    }
    NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
  }

  // PLIs are a per-shard optimization: a shard whose file is missing is
  // simply rebuilt, but a corrupt file is an error like any other snapshot.
  state.shard_plis.resize(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    auto plis = store_.LoadPlis(s);
    if (plis.ok()) {
      state.shard_plis[s] = std::move(plis).value();
    } else if (plis.status().code() != StatusCode::kNotFound) {
      return plis.status();
    }
  }

  auto frontier = OpenVerifiedSnapshot(options_.dir + "/frontier.snap",
                                       fingerprint_);
  if (!frontier.ok()) {
    if (frontier.status().code() == StatusCode::kNotFound) return state;
    return frontier.status();
  }
  NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                             frontier->Section(kSectionFrontier));
  SnapshotDecoder dec(bytes);
  NORMALIZE_ASSIGN_OR_RETURN(int32_t level, dec.GetI32());
  if (level < 0) {
    return Status::DataLoss("checkpointed frontier level " +
                            std::to_string(level) + " is negative");
  }
  NORMALIZE_ASSIGN_OR_RETURN(state.frontier_fds, DecodeFdVector(&dec));
  NORMALIZE_ASSIGN_OR_RETURN(state.agree_sets, DecodeAttributeSetVector(&dec));
  NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
  state.last_complete_level = level;
  state.has_frontier = true;
  return state;
}

Status CheckpointManager::SaveCover(const FdSet& cover) {
  SnapshotEncoder enc;
  EncodeFdSet(&enc, cover);
  SnapshotWriter writer;
  AddFingerprintSection(&writer, fingerprint_);
  writer.AddSection(kSectionCover, std::move(enc).bytes());
  return writer.WriteToFile(options_.dir + "/cover.snap");
}

Result<FdSet> CheckpointManager::LoadCover() {
  NORMALIZE_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenVerifiedSnapshot(options_.dir + "/cover.snap", fingerprint_));
  NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                             reader.Section(kSectionCover));
  SnapshotDecoder dec(bytes);
  NORMALIZE_ASSIGN_OR_RETURN(FdSet cover, DecodeFdSet(&dec));
  NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
  return cover;
}

Status CheckpointManager::SaveLiveState(const LiveServiceState& state) {
  SnapshotEncoder meta;
  meta.PutU64(state.epoch);
  meta.PutU64(state.last_applied_seq);
  meta.PutU64(state.batches_applied);

  SnapshotEncoder store;
  EncodeRelationPrototype(&store, state.log);
  EncodeShardRows(&store, state.log);
  store.PutString(state.live_mask);

  SnapshotEncoder cover;
  EncodeFdSet(&cover, state.cover);

  SnapshotEncoder evidence;
  evidence.PutU64(state.evidence.size());
  for (const auto& [agree, witness] : state.evidence) {
    EncodeAttributeSet(&evidence, agree);
    evidence.PutU64(witness.first);
    evidence.PutU64(witness.second);
  }

  SnapshotWriter writer;
  AddFingerprintSection(&writer, fingerprint_);
  writer.AddSection(kSectionLiveMeta, std::move(meta).bytes());
  writer.AddSection(kSectionLiveStore, std::move(store).bytes());
  writer.AddSection(kSectionLiveCover, std::move(cover).bytes());
  writer.AddSection(kSectionLiveEvidence, std::move(evidence).bytes());
  return writer.WriteToFile(options_.dir + "/live.snap");
}

Result<LiveServiceState> CheckpointManager::LoadLiveState() {
  NORMALIZE_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenVerifiedSnapshot(options_.dir + "/live.snap", fingerprint_));
  LiveServiceState state;
  {
    NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                               reader.Section(kSectionLiveMeta));
    SnapshotDecoder dec(bytes);
    NORMALIZE_ASSIGN_OR_RETURN(state.epoch, dec.GetU64());
    NORMALIZE_ASSIGN_OR_RETURN(state.last_applied_seq, dec.GetU64());
    NORMALIZE_ASSIGN_OR_RETURN(state.batches_applied, dec.GetU64());
    NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
  }
  {
    NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                               reader.Section(kSectionLiveStore));
    SnapshotDecoder dec(bytes);
    NORMALIZE_ASSIGN_OR_RETURN(RelationData proto,
                               DecodeRelationPrototype(&dec));
    NORMALIZE_ASSIGN_OR_RETURN(state.log,
                               DecodeShardRows(&dec, proto, proto.name()));
    NORMALIZE_ASSIGN_OR_RETURN(state.live_mask, dec.GetString());
    NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
    if (state.live_mask.size() != state.log.num_rows()) {
      return Status::DataLoss(
          "live.snap mask covers " + std::to_string(state.live_mask.size()) +
          " rows but the log holds " + std::to_string(state.log.num_rows()));
    }
  }
  {
    NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                               reader.Section(kSectionLiveCover));
    SnapshotDecoder dec(bytes);
    NORMALIZE_ASSIGN_OR_RETURN(state.cover, DecodeFdSet(&dec));
    NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
  }
  {
    NORMALIZE_ASSIGN_OR_RETURN(std::string_view bytes,
                               reader.Section(kSectionLiveEvidence));
    SnapshotDecoder dec(bytes);
    NORMALIZE_ASSIGN_OR_RETURN(uint64_t count, dec.GetU64());
    state.evidence.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      NORMALIZE_ASSIGN_OR_RETURN(AttributeSet agree, DecodeAttributeSet(&dec));
      NORMALIZE_ASSIGN_OR_RETURN(uint64_t first, dec.GetU64());
      NORMALIZE_ASSIGN_OR_RETURN(uint64_t second, dec.GetU64());
      if (first >= state.log.num_rows() || second >= state.log.num_rows()) {
        return Status::DataLoss("live.snap evidence witness row out of range");
      }
      state.evidence.emplace_back(
          std::move(agree), std::make_pair(static_cast<RowId>(first),
                                           static_cast<RowId>(second)));
    }
    NORMALIZE_RETURN_IF_ERROR(dec.ExpectEnd());
  }
  return state;
}

void CheckpointManager::OnInterruption(const Status& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (interruption_noted_) return;
    interruption_noted_ = true;
  }
  SnapshotEncoder enc;
  enc.PutI32(static_cast<int32_t>(why.code()));
  enc.PutString(why.message());
  SnapshotWriter writer;
  AddFingerprintSection(&writer, fingerprint_);
  writer.AddSection(kSectionInterruption, std::move(enc).bytes());
  // Best-effort: the real state files were written by the sink already.
  (void)writer.WriteToFile(options_.dir + "/interrupted.snap");
}

}  // namespace normalize
