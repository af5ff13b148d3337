#include "shard/sharded_discovery.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.hpp"
#include "discovery/discovery_util.hpp"
#include "discovery/induction.hpp"
#include "fd/fd_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pli/pli.hpp"
#include "shard/shard_relation.hpp"

namespace normalize {

void ShardedDiscovery::PublishObservability() const {
  MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) return;
  RecordPhaseMetrics(registry, "shard", phase_metrics_);
  constexpr std::string_view kLabels = "component=shard";
  auto count = [&](const char* name, size_t value) {
    if (value > 0) registry->GetCounter(name, kLabels)->Increment(value);
  };
  registry->GetGauge("shard_count", kLabels)
      ->Set(static_cast<int64_t>(stats_.shard_count));
  count("shard_seed_fds_total", stats_.seed_fds);
  count("shard_validated_candidates_total", stats_.validated_candidates);
  count("shard_invalid_candidates_total", stats_.invalid_candidates);
  count("shard_within_shard_violations_total", stats_.within_shard_violations);
  count("shard_cross_shard_violations_total", stats_.cross_shard_violations);
  count("shard_exchanged_evidence_sets_total", stats_.exchanged_evidence_sets);
  count("shard_cross_shard_sampled_sets_total",
        stats_.cross_shard_sampled_sets);
  count("shard_cross_shard_comparisons_total", stats_.cross_shard_comparisons);
  count("shard_evidence_less_shards_total", stats_.evidence_less_shards);
  count("shard_plis_reused_total", stats_.plis_reused);
  count("shard_resumed_covers_total", stats_.resumed_covers ? 1 : 0);
  count("shard_resumed_frontier_total", stats_.resumed_frontier ? 1 : 0);
}

namespace {

/// A row addressed by (shard index, row within shard).
struct ShardRow {
  size_t shard;
  RowId row;
};

struct CodeVecHash {
  size_t operator()(const std::vector<ValueId>& v) const {
    size_t h = 1469598103934665603ull;
    for (ValueId x : v) {
      h ^= static_cast<size_t>(static_cast<uint32_t>(x));
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Per column: masks[c][code] != 0 iff the dictionary code occurs in at
/// least two shards. Rows whose LHS contains a code private to one shard
/// can never be part of a straddling pair, so the cross-shard tier skips
/// them — and skips the whole scan when an LHS column has no shared codes
/// at all (any_shared[c] == 0), the common case for key-like columns.
struct SharedCodeMasks {
  std::vector<std::vector<char>> masks;
  std::vector<char> any_shared;
};

/// Checks lhs_attrs -> rhs_attr across the union of all shards' rows by
/// grouping on LHS code tuples (codes agree across shards thanks to the
/// shared dictionaries). Returns one violating row pair or nullopt. Only
/// called for candidates already valid within every single shard, so any
/// violation found here necessarily straddles two shards — which is why a
/// non-null `shared` mask soundly restricts the scan to rows whose LHS codes
/// all occur in >= 2 shards: both rows of a straddling pair share each LHS
/// code across their two shards, so every member of a violating pair
/// survives the filter, and rows it drops can only have formed same-shard
/// pairs, which the within-shard tier already proved consistent.
/// One violating row pair per RHS attribute (or nullopt), found in a single
/// scan: out[j] answers lhs_attrs -> rhs_attrs[j]. Batching the RHS attrs
/// matters because the scan groups rows by LHS code tuple — identical work
/// for every RHS of the same candidate — and the post-exchange candidate
/// tree is dominated by few-LHS/many-RHS nodes.
void ValidateAcrossShards(
    const std::vector<RelationData>& shards,
    const std::vector<AttributeId>& lhs_attrs,
    const std::vector<AttributeId>& rhs_attrs, const SharedCodeMasks* shared,
    std::vector<std::optional<std::pair<ShardRow, ShardRow>>>* out) {
  size_t m = rhs_attrs.size();
  out->assign(m, std::nullopt);
  if (m == 0) return;
  if (shared != nullptr && !lhs_attrs.empty()) {
    for (AttributeId a : lhs_attrs) {
      if (!shared->any_shared[static_cast<size_t>(a)]) return;
    }
  }
  std::vector<const std::vector<ValueId>*> rhs_codes(m);
  size_t open = m;  // RHS attrs still without a violation
  auto compare = [&](size_t j, ValueId rep_code, const ShardRow& rep,
                     ValueId code, const ShardRow& here) {
    if ((*out)[j] || rep_code == code) return;
    (*out)[j] = std::make_pair(rep, here);
    --open;
  };
  if (lhs_attrs.empty()) {
    // {} -> rhs: each RHS column must be constant across all shards.
    std::optional<ShardRow> first;
    std::vector<ValueId> first_codes(m);
    for (size_t s = 0; s < shards.size() && open > 0; ++s) {
      for (size_t j = 0; j < m; ++j) {
        rhs_codes[j] = &shards[s].column(rhs_attrs[j]).codes();
      }
      size_t rows = shards[s].num_rows();
      for (size_t r = 0; r < rows && open > 0; ++r) {
        ShardRow here{s, static_cast<RowId>(r)};
        if (!first) {
          first = here;
          for (size_t j = 0; j < m; ++j) first_codes[j] = (*rhs_codes[j])[r];
          continue;
        }
        for (size_t j = 0; j < m; ++j) {
          compare(j, first_codes[j], *first, (*rhs_codes[j])[r], here);
        }
      }
    }
    return;
  }
  if (lhs_attrs.size() == 1) {
    // Codes of the shared dictionary are dense in [0, DistinctCount):
    // a flat representative table replaces the hash map.
    const std::vector<char>* mask =
        shared != nullptr ? &shared->masks[static_cast<size_t>(lhs_attrs[0])]
                          : nullptr;
    size_t groups = shards.front().column(lhs_attrs[0]).DistinctCount();
    std::vector<char> seen(groups, 0);
    std::vector<ShardRow> rep_row(groups);
    std::vector<ValueId> rep_codes(groups * m);
    for (size_t s = 0; s < shards.size() && open > 0; ++s) {
      const std::vector<ValueId>& lhs_codes =
          shards[s].column(lhs_attrs[0]).codes();
      for (size_t j = 0; j < m; ++j) {
        rhs_codes[j] = &shards[s].column(rhs_attrs[j]).codes();
      }
      for (size_t r = 0; r < lhs_codes.size() && open > 0; ++r) {
        size_t g = static_cast<size_t>(lhs_codes[r]);
        if (mask != nullptr && !(*mask)[g]) continue;
        ShardRow here{s, static_cast<RowId>(r)};
        if (!seen[g]) {
          seen[g] = 1;
          rep_row[g] = here;
          for (size_t j = 0; j < m; ++j) {
            rep_codes[g * m + j] = (*rhs_codes[j])[r];
          }
          continue;
        }
        for (size_t j = 0; j < m; ++j) {
          compare(j, rep_codes[g * m + j], rep_row[g], (*rhs_codes[j])[r],
                  here);
        }
      }
    }
    return;
  }
  struct Rep {
    ShardRow row;
    std::vector<ValueId> codes;
  };
  std::unordered_map<std::vector<ValueId>, Rep, CodeVecHash> reps;
  std::vector<ValueId> key(lhs_attrs.size());
  for (size_t s = 0; s < shards.size() && open > 0; ++s) {
    const RelationData& shard = shards[s];
    for (size_t j = 0; j < m; ++j) {
      rhs_codes[j] = &shard.column(rhs_attrs[j]).codes();
    }
    size_t rows = shard.num_rows();
    for (size_t r = 0; r < rows && open > 0; ++r) {
      bool skip = false;
      for (size_t j = 0; j < lhs_attrs.size(); ++j) {
        ValueId code = shard.column(lhs_attrs[j]).code(r);
        if (shared != nullptr &&
            !shared->masks[static_cast<size_t>(lhs_attrs[j])]
                          [static_cast<size_t>(code)]) {
          skip = true;
          break;
        }
        key[j] = code;
      }
      if (skip) continue;
      ShardRow here{s, static_cast<RowId>(r)};
      auto [it, inserted] = reps.try_emplace(key);
      if (inserted) {
        it->second.row = here;
        it->second.codes.resize(m);
        for (size_t j = 0; j < m; ++j) {
          it->second.codes[j] = (*rhs_codes[j])[r];
        }
        continue;
      }
      for (size_t j = 0; j < m; ++j) {
        compare(j, it->second.codes[j], it->second.row, (*rhs_codes[j])[r],
                here);
      }
    }
  }
}

}  // namespace

ShardedDiscovery::ShardedDiscovery(std::string backend,
                                   FdDiscoveryOptions options,
                                   ShardOptions shard_options)
    : backend_(std::move(backend)),
      options_(options),
      shard_options_(shard_options) {}

Result<FdSet> ShardedDiscovery::Discover(const RelationData& data) {
  return Discover(SliceIntoShards(data, shard_options_.shard_rows));
}

Result<FdSet> ShardedDiscovery::Discover(
    const std::vector<RelationData>& shards) {
  stats_ = Stats{};
  phase_metrics_.Clear();
  completion_ = Status::OK();
  if (shards.empty()) {
    return Status::InvalidArgument(
        "sharded discovery needs at least one shard");
  }
  stats_.shard_count = shards.size();
  const RelationData& first = shards.front();
  int n = first.num_columns();
  for (size_t s = 1; s < shards.size(); ++s) {
    if (shards[s].num_columns() != n ||
        shards[s].attribute_ids() != first.attribute_ids()) {
      return Status::InvalidArgument("shards disagree on schema");
    }
    for (int c = 0; c < n; ++c) {
      if (shards[s].column(c).dictionary() != first.column(c).dictionary()) {
        return Status::InvalidArgument(
            "shard columns must share value dictionaries (produce shards "
            "with ShardedCsvReader or SliceIntoShards)");
      }
    }
  }
  // Consume any installed resume state (one-shot: a second Discover() call
  // starts fresh unless the caller installs new state).
  DiscoveryResumeState resume = std::move(resume_);
  resume_ = DiscoveryResumeState{};
  if (shards.size() == 1) {
    // A plain backend run. Its agree-set evidence fully determines its
    // cover, so that evidence is all an interrupted run checkpoints and
    // all a resumed run imports.
    auto algo = MakeFdDiscovery(backend_, options_);
    if (!algo) {
      return Status::InvalidArgument("unknown discovery algorithm: " +
                                     backend_);
    }
    if (!resume.agree_sets.empty()) {
      algo->ImportEvidence(std::move(resume.agree_sets));
    }
    auto result = algo->Discover(first);
    if (!result.ok()) return result;
    phase_metrics_.MergeFrom(algo->phase_metrics());
    completion_ = algo->completion_status();
    if (sink_ != nullptr && !completion_.ok()) {
      NORMALIZE_RETURN_IF_ERROR(sink_->OnEvidence(algo->ExportEvidence()));
    }
    return result;
  }
  if (n == 0) return FdSet{};

  // From here on this is a real multi-shard run: publish counters and phase
  // timings into the registry however the run ends (success, interruption,
  // or a per-shard failure), and root the run's span tree.
  struct ObservabilityGuard {
    const ShardedDiscovery* self;
    ~ObservabilityGuard() { self->PublishObservability(); }
  } publish_guard{this};
  const RunContext* outer_ctx = options_.context;
  ScopedSpan run_span(outer_ctx != nullptr ? outer_ctx->tracer : nullptr,
                      "shard_discover",
                      outer_ctx != nullptr ? outer_ctx->span : 0);

  size_t k = shards.size();
  int threads = ResolveThreadCount(shard_options_.threads);
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  if (threads > 1) {
    pool = options_.pool;  // prefer the externally owned pool
    if (pool == nullptr) {
      pool_storage.emplace(threads);
      pool = &*pool_storage;
      if (options_.context != nullptr) {
        pool_storage->SetCancellation(options_.context->cancel);
      }
    }
  }
  const RunContext* ctx = options_.context;

  if (!resume.shard_covers.empty() && resume.shard_covers.size() != k) {
    return Status::FailedPrecondition(
        "resume state has " + std::to_string(resume.shard_covers.size()) +
        " shard covers but the input has " + std::to_string(k) + " shards");
  }

  // --- Per-shard discovery fan-out ---
  // Each shard runs the serial backend; the fan-out itself is the
  // parallelism (per-shard threads would contend with it, and running the
  // backend's ParallelFor on the outer pool could self-deadlock). The
  // RunContext is forwarded so each per-shard run polls it too.
  // A checkpoint resume replaces the whole fan-out with the stored covers.
  Stopwatch watch;
  std::vector<FdSet> shard_fds(k);
  std::vector<std::shared_ptr<const PliCache>> handoff(k);
  // Per-shard negative covers for the evidence exchange below. Backends that
  // do not track evidence (e.g. tane) export an empty list, which gracefully
  // degrades to cross-shard sampling only. Stays empty on a checkpoint
  // resume: no per-shard algorithms ran.
  std::vector<std::vector<AttributeSet>> shard_evidence(k);
  if (!resume.shard_covers.empty()) {
    shard_fds = std::move(resume.shard_covers);
    stats_.resumed_covers = true;
  } else {
    std::vector<Status> statuses(k);
    Status dispatch = ParallelFor(pool, k, [&, ctx](size_t s) {
      if (ctx != nullptr && ctx->SoftInterrupted()) {
        statuses[s] = Status::Cancelled("shard fan-out interrupted");
        return;
      }
      FdDiscoveryOptions per_shard = options_;
      per_shard.threads = 1;
      per_shard.pool = nullptr;
      // Re-seat the span parent across the pool hop: the worker thread has
      // no ambient span, so the per-shard context carries the coordinator's
      // run span explicitly and each shard's discover span nests under it.
      RunContext shard_ctx;
      if (ctx != nullptr) {
        shard_ctx = *ctx;
        shard_ctx.span = run_span.id();
        per_shard.context = &shard_ctx;
      }
      auto algo = MakeFdDiscovery(backend_, per_shard);
      if (!algo) {
        statuses[s] =
            Status::InvalidArgument("unknown discovery algorithm: " + backend_);
        return;
      }
      auto result = algo->Discover(shards[s]);
      if (!result.ok()) {
        statuses[s] = result.status();
        return;
      }
      // An interrupted per-shard run yields a *partial* cover, which would
      // poison the merge's completeness assumption — record it as a failure
      // of this shard instead of merging it.
      statuses[s] = algo->completion_status();
      shard_fds[s] = std::move(result).value();
      // Keep the backend's PLI cache alive: the merge validates against the
      // very same single-column PLIs, so rebuilding them would be pure
      // duplicate work.
      handoff[s] = algo->shared_pli_cache();
      if (shard_options_.exchange_evidence) {
        shard_evidence[s] = algo->ExportEvidence();
      }
    });
    {
      Status interrupted = CheckRunContext(ctx);
      if (interrupted.ok() && !dispatch.ok()) interrupted = dispatch;
      for (const Status& st : statuses) {
        if (st.ok()) continue;
        if (IsInterruption(st.code())) {
          if (interrupted.ok()) interrupted = st;
        } else {
          return st;  // real per-shard failure, not an interruption
        }
      }
      if (!interrupted.ok()) {
        // No merged level has been validated yet: the only sound partial
        // result is the empty cover.
        completion_ = std::move(interrupted);
        return RemapToGlobal({}, shards[0]);
      }
    }
    phase_metrics_.Record("shard_discovery", watch.ElapsedSeconds(), k);
  }

  // --- Merge machinery: per-shard cover trees and PLI caches ---
  watch.Restart();
  std::vector<FdTree> covers;
  covers.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    covers.push_back(BuildLocalFdTree(shard_fds[s], shards[s]));
  }
  phase_metrics_.Record("shard_covers", watch.ElapsedSeconds(), k);
  watch.Restart();
  // Per-shard PLI preference order: checkpointed PLIs (resume), then the
  // backend's handoff cache (fresh fan-out), then a rebuild from the rows.
  std::vector<std::shared_ptr<const PliCache>> caches(k);
  bool resume_plis = resume.shard_plis.size() == k;
  for (size_t s = 0; s < k; ++s) {
    if (resume_plis &&
        resume.shard_plis[s].size() == static_cast<size_t>(n)) {
      caches[s] = std::make_shared<PliCache>(shards[s],
                                             std::move(resume.shard_plis[s]));
      ++stats_.plis_reused;
    } else if (handoff[s] != nullptr) {
      caches[s] = std::move(handoff[s]);
      ++stats_.plis_reused;
    } else {
      caches[s] = std::make_shared<PliCache>(shards[s], pool);
    }
  }
  phase_metrics_.Record("pli_build", watch.ElapsedSeconds(),
                        k * static_cast<size_t>(n));

  // First checkpoint: per-shard covers plus the PLIs the merge will use. A
  // resumed run's covers are already on disk, so only fresh runs report.
  if (sink_ != nullptr && !stats_.resumed_covers) {
    watch.Restart();
    NORMALIZE_RETURN_IF_ERROR(sink_->OnShardState(shard_fds, caches));
    phase_metrics_.Record("checkpoint_shard_state", watch.ElapsedSeconds(), k);
  }

  // --- Merge-and-validate ---
  // Seed with shard 0's minimal cover: every globally valid FD holds on
  // shard 0 and is therefore a specialization of some seed FD, so the tree
  // is a positive cover from the start and stays one under
  // SpecializeCover (violations come from real row pairs, which can never
  // discharge a globally valid FD).
  FdTree tree = BuildLocalFdTree(shard_fds[0], shards[0]);
  stats_.seed_fds = tree.CountFds();

  std::unordered_set<AttributeSet> seen_agree_sets;
  int start_level = 0;
  int resumed_last_complete = -1;
  if (resume.has_frontier) {
    // Rebuild the candidate tree exactly as the checkpoint recorded it and
    // restart after the last fully validated level. The stored agree sets
    // re-seed the dedup set so old evidence is not re-collected.
    tree = FdTree(n);
    for (const Fd& fd : resume.frontier_fds) {
      for (AttributeId a : fd.rhs) tree.AddFd(fd.lhs, a);
    }
    seen_agree_sets.insert(resume.agree_sets.begin(),
                           resume.agree_sets.end());
    resumed_last_complete = resume.last_complete_level;
    start_level = resume.last_complete_level + 1;
    stats_.resumed_frontier = true;
  }
  int max_level = n - 1;
  if (options_.max_lhs_size > 0) {
    max_level = std::min(max_level, options_.max_lhs_size);
  }

  // Same partial-result rule as HyFD: tree FDs at fully-validated levels
  // are exactly the minimal FDs of those LHS sizes on the concatenated
  // relation (the seed is shard 0's *minimal* cover — every proper subset
  // of a seed LHS is already violated on shard 0, hence globally — and
  // specializations only enter once their generalizations are refuted by
  // real row pairs).
  int last_complete_level = resumed_last_complete;
  auto partial_result = [&](Status why) -> Result<FdSet> {
    completion_ = std::move(why);
    std::vector<Fd> kept;
    if (last_complete_level >= 0) {
      MinimizeCover(&tree);
      for (Fd& fd : tree.CollectAllFds()) {
        if (static_cast<int>(fd.lhs.Count()) <= last_complete_level) {
          kept.push_back(std::move(fd));
        }
      }
    }
    return RemapToGlobal(kept, shards[0]);
  };

  // --- Evidence exchange: pre-prune the seed cover before any validation ---
  // Two evidence sources, both agree sets of real row pairs (so applying
  // them preserves the positive-cover invariant and cannot change the final
  // minimal cover — it only moves refutations ahead of the validation
  // sweeps):
  //   1. every shard's exported negative cover, which fully determines that
  //      shard's minimal cover and hence refutes every candidate the shard
  //      disagrees with (the within-shard violations);
  //   2. focused cross-shard samples — per column, the first row of each
  //      shared dictionary code in consecutive shards that contain it. These
  //      are exactly the cheap straddling pairs HyFD-style sampling would
  //      pick first, and they refute most cross-shard violations up front.
  // The same pass derives the shared-code masks that restrict the
  // cross-shard validation tier (see ValidateAcrossShards).
  // Skipped on a frontier resume: the checkpointed tree already absorbed
  // all evidence, and re-inducing below start_level would be wasted work.
  SharedCodeMasks shared_masks;
  if (shard_options_.exchange_evidence) {
    watch.Restart();
    constexpr size_t kNoShard = static_cast<size_t>(-1);
    const bool do_sampling = !resume.has_frontier;
    shared_masks.masks.assign(static_cast<size_t>(n), {});
    shared_masks.any_shared.assign(static_cast<size_t>(n), 0);
    std::vector<std::vector<AttributeSet>> sampled(static_cast<size_t>(n));
    std::vector<size_t> comparisons(static_cast<size_t>(n), 0);
    Status dispatch =
        ParallelFor(pool, static_cast<size_t>(n), [&](size_t c) {
          size_t groups =
              first.column(static_cast<int>(c)).DistinctCount();
          std::vector<char>& mask = shared_masks.masks[c];
          mask.assign(groups, 0);
          // prev_rep[g]: first row of code g in the most recent shard that
          // contains it; a first occurrence in a later shard forms one
          // straddling sample pair and marks the code shared.
          std::vector<ShardRow> prev_rep(groups, ShardRow{kNoShard, 0});
          std::unordered_set<AttributeSet> column_seen;
          for (size_t s = 0; s < k; ++s) {
            const std::vector<ValueId>& codes =
                shards[s].column(static_cast<int>(c)).codes();
            std::vector<char> seen_in_shard(groups, 0);
            for (size_t r = 0; r < codes.size(); ++r) {
              size_t g = static_cast<size_t>(codes[r]);
              if (seen_in_shard[g]) continue;
              seen_in_shard[g] = 1;
              if (prev_rep[g].shard != kNoShard) {
                mask[g] = 1;
                shared_masks.any_shared[c] = 1;
                if (do_sampling) {
                  ++comparisons[c];
                  AttributeSet ag = AgreeSetOf(
                      shards[prev_rep[g].shard], prev_rep[g].row, shards[s],
                      static_cast<RowId>(r));
                  if (column_seen.insert(ag).second) {
                    sampled[c].push_back(std::move(ag));
                  }
                }
              }
              prev_rep[g] = ShardRow{s, static_cast<RowId>(r)};
            }
          }
        });
    if (dispatch.ok()) dispatch = CheckRunContext(ctx);
    if (!dispatch.ok()) return partial_result(std::move(dispatch));
    if (do_sampling) {
      // Deterministic application order — shard order for the exported
      // covers, then column order for the samples — so the induction
      // sequence is identical at every thread count. Shard 0's own evidence
      // is skipped: the seed IS shard 0's minimal cover, so by completeness
      // none of its evidence can specialize the initial tree — every
      // application would be a paid-for no-op. Per shard, only the largest
      // (most subsuming) sets are applied, mirroring HyFd's induction cap:
      // pre-pruning is an accelerator, validation guarantees exactness, so
      // skipping low-value evidence trades a few extra validation
      // violations for a much cheaper exchange.
      constexpr size_t kMaxEvidencePerShard = 2000;
      for (size_t s = 1; s < k; ++s) {
        if (shard_evidence[s].empty()) {
          // ExportEvidence defaults to {} for backends without evidence
          // tracking — record the skipped exchange instead of letting it
          // pass silently (Stats::evidence_less_shards).
          ++stats_.evidence_less_shards;
          continue;
        }
        std::vector<AttributeSet> ranked = shard_evidence[s];
        if (ranked.size() > kMaxEvidencePerShard) {
          std::stable_sort(ranked.begin(), ranked.end(),
                           [](const AttributeSet& a, const AttributeSet& b) {
                             return a.Count() > b.Count();
                           });
          ranked.resize(kMaxEvidencePerShard);
        }
        for (const AttributeSet& ag : ranked) {
          if (!seen_agree_sets.insert(ag).second) continue;
          InduceFromAgreeSet(&tree, ag, options_.max_lhs_size);
          ++stats_.exchanged_evidence_sets;
        }
      }
      for (size_t c = 0; c < sampled.size(); ++c) {
        stats_.cross_shard_comparisons += comparisons[c];
        for (const AttributeSet& ag : sampled[c]) {
          if (!seen_agree_sets.insert(ag).second) continue;
          InduceFromAgreeSet(&tree, ag, options_.max_lhs_size);
          ++stats_.exchanged_evidence_sets;
          ++stats_.cross_shard_sampled_sets;
        }
      }
    }
    phase_metrics_.Record("evidence_exchange", watch.ElapsedSeconds(),
                          stats_.exchanged_evidence_sets);
    if (stats_.evidence_less_shards > 0) {
      phase_metrics_.Record("evidence_less_shards", 0.0,
                            stats_.evidence_less_shards);
    }
  }
  const SharedCodeMasks* validation_masks =
      shard_options_.exchange_evidence ? &shared_masks : nullptr;

  struct Violation {
    AttributeSet agree;
    bool cross_shard = false;
  };

  for (int level = start_level; level <= max_level; ++level) {
    while (true) {
      Status interrupted = CheckRunContext(ctx);
      if (!interrupted.ok()) return partial_result(std::move(interrupted));
      // Snapshot this level's candidates; validate them concurrently
      // against the immutable shards (the tree is not touched), then apply
      // the violations serially in snapshot order — the same deterministic
      // sweep structure as HyFD's parallel validation.
      std::vector<Fd> candidates = tree.GetLevel(level);
      if (candidates.empty()) break;
      size_t total_units = 0;
      std::vector<std::vector<AttributeId>> lhs_vecs(candidates.size());
      std::vector<std::vector<AttributeId>> rhs_vecs(candidates.size());
      for (size_t c = 0; c < candidates.size(); ++c) {
        lhs_vecs[c] = candidates[c].lhs.ToVector();
        for (AttributeId a : candidates[c].rhs) rhs_vecs[c].push_back(a);
        total_units += rhs_vecs[c].size();
      }
      Stopwatch validation_watch;
      // Per-candidate violation slots, one per RHS attribute (in rhs_vecs
      // order); the cross-shard scan is shared by every RHS of a candidate.
      std::vector<std::vector<std::optional<Violation>>> violations(
          candidates.size());
      Status dispatch =
          ParallelFor(pool, candidates.size(), [&, ctx](size_t c) {
            if (ctx != nullptr && ctx->SoftInterrupted()) return;
            const AttributeSet& lhs = candidates[c].lhs;
            const std::vector<AttributeId>& lhs_attrs = lhs_vecs[c];
            const std::vector<AttributeId>& rhs_attrs = rhs_vecs[c];
            size_t m = rhs_attrs.size();
            violations[c].assign(m, std::nullopt);
            // Within-shard tier: the covers are complete up to
            // max_lhs_size, so a shard whose cover does not imply the
            // candidate must violate it; targeted PLI validation on that
            // shard finds a witness pair.
            std::vector<AttributeId> cross_rhs;
            std::vector<size_t> cross_slot;
            for (size_t j = 0; j < m; ++j) {
              bool violated = false;
              for (size_t s = 0; s < k && !violated; ++s) {
                if (covers[s].ContainsFdOrGeneralization(lhs, rhs_attrs[j])) {
                  continue;
                }
                auto pair = ValidateFdCandidate(shards[s], *caches[s],
                                                lhs_attrs, rhs_attrs[j]);
                if (pair) {
                  violations[c][j] = Violation{
                      AgreeSetOf(shards[s], pair->first, shards[s],
                                 pair->second),
                      /*cross_shard=*/false};
                  violated = true;
                }
              }
              if (!violated) {
                cross_rhs.push_back(rhs_attrs[j]);
                cross_slot.push_back(j);
              }
            }
            // Cross-shard tier: valid inside every shard — only a row pair
            // straddling two shards can still break it. One scan covers
            // every surviving RHS of this candidate.
            std::vector<std::optional<std::pair<ShardRow, ShardRow>>> pairs;
            ValidateAcrossShards(shards, lhs_attrs, cross_rhs,
                                 validation_masks, &pairs);
            for (size_t j = 0; j < cross_rhs.size(); ++j) {
              if (!pairs[j]) continue;
              violations[c][cross_slot[j]] = Violation{
                  AgreeSetOf(shards[pairs[j]->first.shard],
                             pairs[j]->first.row,
                             shards[pairs[j]->second.shard],
                             pairs[j]->second.row),
                  /*cross_shard=*/true};
            }
          });
      // Unset violation slots of a skipped sweep look like confirmations —
      // bail before the merge trusts them.
      interrupted = CheckRunContext(ctx);
      if (interrupted.ok() && !dispatch.ok()) interrupted = dispatch;
      if (!interrupted.ok()) return partial_result(std::move(interrupted));
      size_t invalid = 0;
      std::vector<AttributeSet> evidence;
      for (size_t c = 0; c < candidates.size(); ++c) {
        for (size_t j = 0; j < violations[c].size(); ++j) {
          if (!violations[c][j]) continue;
          ++invalid;
          if (violations[c][j]->cross_shard) {
            ++stats_.cross_shard_violations;
          } else {
            ++stats_.within_shard_violations;
          }
          const AttributeSet& ag = violations[c][j]->agree;
          if (seen_agree_sets.insert(ag).second) evidence.push_back(ag);
          // Even previously-seen evidence must be (re)applied to this
          // candidate — it may have been added after the original induction.
          SpecializeCover(&tree, ag, rhs_vecs[c][j], options_.max_lhs_size);
        }
      }
      stats_.validated_candidates += total_units;
      stats_.invalid_candidates += invalid;
      double validation_s = validation_watch.ElapsedSeconds();
      phase_metrics_.Record("merge_validation", validation_s, total_units);
      // Per-level record: the adaptive degradation picker reads these to
      // find the deepest level that fits the time budget.
      phase_metrics_.Record("merge_validation_L" + std::to_string(level),
                            validation_s, total_units);
      Stopwatch induction_watch;
      for (const AttributeSet& ag : evidence) {
        InduceFromAgreeSet(&tree, ag, options_.max_lhs_size);
      }
      phase_metrics_.Record("merge_induction", induction_watch.ElapsedSeconds(),
                            evidence.size());
      if (invalid == 0) break;
    }
    last_complete_level = level;
    // Checkpoint the fully validated level: the tree's FDs (pre-minimize —
    // this is resume state) and the evidence that shaped them, canonically
    // sorted so identical state yields identical snapshot bytes.
    if (sink_ != nullptr) {
      Stopwatch ckpt_watch;
      std::vector<AttributeSet> evidence_sorted(seen_agree_sets.begin(),
                                                seen_agree_sets.end());
      std::sort(evidence_sorted.begin(), evidence_sorted.end());
      NORMALIZE_RETURN_IF_ERROR(
          sink_->OnMergeLevel(level, tree.CollectAllFds(), evidence_sorted));
      phase_metrics_.Record("checkpoint_merge_level",
                            ckpt_watch.ElapsedSeconds());
    }
  }

  MinimizeCover(&tree);
  return RemapToGlobal(tree.CollectAllFds(), shards[0]);
}

}  // namespace normalize
