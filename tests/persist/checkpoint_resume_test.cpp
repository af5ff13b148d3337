// Checkpoint / resume equivalence: a run interrupted mid-pipeline and
// resumed from its checkpoint directory must produce the schema, closure,
// and relation instances of an uninterrupted run — bit for bit — across
// thread counts, shard counts, and datasets. Also covers the non-degradation
// contract (a checkpointed run returns its interruption instead of silently
// degrading), chained interruptions, and the PLI handoff.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_context.hpp"
#include "datagen/musicbrainz_like.hpp"
#include "datagen/tpch_like.hpp"
#include "normalize/normalizer.hpp"
#include "relation/csv.hpp"

namespace normalize {
namespace {

RelationData DatasetInput(const std::string& dataset) {
  if (dataset == "tpch") {
    return GenerateTpchLike(TpchScale{}.Scaled(0.03)).universal;
  }
  return GenerateMusicBrainzLike(MusicBrainzScale{}.Scaled(0.1)).universal;
}

std::string FreshDir(const std::string& leaf) {
  std::string dir = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectIdenticalResults(const NormalizationResult& actual,
                            const NormalizationResult& expected) {
  EXPECT_EQ(actual.schema.ToString(), expected.schema.ToString());
  EXPECT_TRUE(actual.extended_fds.EquivalentTo(expected.extended_fds));
  ASSERT_EQ(actual.relations.size(), expected.relations.size());
  for (size_t i = 0; i < expected.relations.size(); ++i) {
    EXPECT_EQ(CsvWriter().WriteString(actual.relations[i]),
              CsvWriter().WriteString(expected.relations[i]))
        << "relation " << i;
  }
}

struct MatrixCase {
  const char* dataset;
  int threads;
  int shards;  // input is split into this many row-range shards
};

class CheckpointResumeFaultTest
    : public ::testing::TestWithParam<MatrixCase> {};

// Interrupt an in-memory run mid-discovery with a deterministic injected
// deadline, then resume from the checkpoint directory: the resumed run must
// reproduce the uninterrupted result exactly.
TEST_P(CheckpointResumeFaultTest, ResumeReproducesUninterruptedRun) {
  const MatrixCase& param = GetParam();
  RelationData input = DatasetInput(param.dataset);

  NormalizerOptions base;
  base.discovery.max_lhs_size = 2;
  base.discovery.threads = param.threads;
  base.closure_threads = param.threads;
  if (param.shards > 1) {
    base.shard.shard_rows = input.num_rows() / param.shards + 1;
    base.shard.threads = param.threads;
  }

  auto reference = Normalizer(base).Normalize(input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::string dir =
      FreshDir(std::string("ckpt_matrix_") + param.dataset + "_t" +
               std::to_string(param.threads) + "_s" +
               std::to_string(param.shards));

  // Interrupted run: dies at an early context check, state flushed.
  {
    FaultInjector faults;
    // Early enough to fire in every configuration: parallel paths poll the
    // latched probe (which never advances the check counter), so high check
    // numbers may never be reached with many threads.
    faults.InterruptAtNthCheck(3, StatusCode::kDeadlineExceeded);
    RunContext ctx;
    ctx.faults = &faults;
    NormalizerOptions interrupted = base;
    interrupted.context = &ctx;
    interrupted.checkpoint.dir = dir;
    auto result = Normalizer(interrupted).Normalize(input);
    // A checkpointed run must NOT degrade: it surfaces the interruption so
    // the caller can resume to the exact uninterrupted result instead.
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(result.status().message().find("checkpointed"),
              std::string::npos)
        << result.status().ToString();
  }

  // Resumed run: continues from the flushed state to the identical result.
  NormalizerOptions resumed = base;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  auto result = Normalizer(resumed).Normalize(input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.completion.ok())
      << result->stats.completion.ToString();
  ExpectIdenticalResults(*result, *reference);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShards, CheckpointResumeFaultTest,
    ::testing::Values(MatrixCase{"tpch", 1, 1}, MatrixCase{"tpch", 1, 2},
                      MatrixCase{"tpch", 1, 4}, MatrixCase{"tpch", 2, 2},
                      MatrixCase{"tpch", 2, 4}, MatrixCase{"tpch", 8, 1},
                      MatrixCase{"tpch", 8, 4}, MatrixCase{"musicbrainz", 1, 1},
                      MatrixCase{"musicbrainz", 1, 4},
                      MatrixCase{"musicbrainz", 2, 1},
                      MatrixCase{"musicbrainz", 2, 2},
                      MatrixCase{"musicbrainz", 8, 2},
                      MatrixCase{"musicbrainz", 8, 4}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.dataset) + "_t" +
             std::to_string(info.param.threads) + "_s" +
             std::to_string(info.param.shards);
    });

// A run interrupted a second time resumes again — checkpoints compose.
TEST(CheckpointResumeFaultTest, ChainedInterruptionsStillConverge) {
  RelationData input = DatasetInput("tpch");
  NormalizerOptions base;
  base.discovery.max_lhs_size = 2;
  base.discovery.threads = 1;
  base.shard.shard_rows = input.num_rows() / 3 + 1;

  auto reference = Normalizer(base).Normalize(input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::string dir = FreshDir("ckpt_chained");
  for (uint64_t nth : {uint64_t{15}, uint64_t{40}}) {
    FaultInjector faults;
    faults.InterruptAtNthCheck(nth, StatusCode::kDeadlineExceeded);
    RunContext ctx;
    ctx.faults = &faults;
    NormalizerOptions interrupted = base;
    interrupted.context = &ctx;
    interrupted.checkpoint.dir = dir;
    interrupted.checkpoint.resume = true;  // second round resumes the first
    auto result = Normalizer(interrupted).Normalize(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }

  NormalizerOptions resumed = base;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  auto result = Normalizer(resumed).Normalize(input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalResults(*result, *reference);
}

// Cancellation (not just deadlines) flushes state and resumes identically.
TEST(CheckpointResumeFaultTest, InjectedCancellationIsResumable) {
  RelationData input = DatasetInput("musicbrainz");
  NormalizerOptions base;
  base.discovery.max_lhs_size = 2;
  base.discovery.threads = 1;

  auto reference = Normalizer(base).Normalize(input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::string dir = FreshDir("ckpt_cancel");
  {
    FaultInjector faults;
    faults.InterruptAtNthCheck(25, StatusCode::kCancelled);
    RunContext ctx;
    ctx.faults = &faults;
    NormalizerOptions interrupted = base;
    interrupted.context = &ctx;
    interrupted.checkpoint.dir = dir;
    auto result = Normalizer(interrupted).Normalize(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  NormalizerOptions resumed = base;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  auto result = Normalizer(resumed).Normalize(input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalResults(*result, *reference);
}

// A completed checkpointed run leaves cover.snap; resuming skips discovery
// entirely and still reproduces the result.
TEST(CheckpointResumeFaultTest, ResumeFromFinalCoverSkipsDiscovery) {
  RelationData input = DatasetInput("tpch");
  NormalizerOptions base;
  base.discovery.max_lhs_size = 2;
  base.discovery.threads = 1;

  std::string dir = FreshDir("ckpt_cover");
  NormalizerOptions first = base;
  first.checkpoint.dir = dir;
  auto reference = Normalizer(first).Normalize(input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(std::filesystem::exists(dir + "/cover.snap"));

  NormalizerOptions resumed = base;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  auto result = Normalizer(resumed).Normalize(input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.resumed);
  EXPECT_EQ(result->stats.fd_discovery_s, 0.0);
  ExpectIdenticalResults(*result, *reference);
}

// The CSV streaming path: interrupted ingest+discovery resumes from the
// spilled shard store, skipping the re-parse, to the identical schema. With
// four shards discovery resumes from the merge state; with one shard
// (shard_rows = 0) it resumes from the backend's checkpointed evidence.
TEST(CheckpointResumeFaultTest, CsvPipelineResumesFromSpilledShards) {
  RelationData input = DatasetInput("musicbrainz");
  std::string path = ::testing::TempDir() + "/ckpt_csv_input.csv";
  ASSERT_TRUE(CsvWriter().WriteFile(input, path).ok());

  for (size_t shard_rows : {input.num_rows() / 4 + 1, size_t{0}}) {
    SCOPED_TRACE("shard_rows=" + std::to_string(shard_rows));
    NormalizerOptions base;
    base.discovery.max_lhs_size = 2;
    base.discovery.threads = 1;
    base.shard.shard_rows = shard_rows;

    auto reference = Normalizer(base).NormalizeCsvFile(path);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    std::string dir = FreshDir("ckpt_csv_" + std::to_string(shard_rows));
    {
      FaultInjector faults;
      faults.InterruptAtNthCheck(30, StatusCode::kDeadlineExceeded);
      RunContext ctx;
      ctx.faults = &faults;
      NormalizerOptions interrupted = base;
      interrupted.context = &ctx;
      interrupted.checkpoint.dir = dir;
      auto result = Normalizer(interrupted).NormalizeCsvFile(path);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      // The ingest completed before the interruption, so the shards are on
      // disk for the resumed run.
      EXPECT_TRUE(std::filesystem::exists(dir + "/ingest.snap"));
    }

    NormalizerOptions resumed = base;
    resumed.checkpoint.dir = dir;
    resumed.checkpoint.resume = true;
    auto result = Normalizer(resumed).NormalizeCsvFile(path);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->stats.resumed);
    if (shard_rows == 0) {
      EXPECT_EQ(result->stats.resumed_stages,
                (std::vector<std::string>{"ingest", "evidence"}));
    }
    ExpectIdenticalResults(*result, *reference);
  }
  std::filesystem::remove(path);
}

// An in-memory run whose single shard holds every row checkpoints and
// resumes the backend's evidence, exactly like an unsharded run.
TEST(CheckpointResumeFaultTest, OneShardNormalizeResumesFromEvidence) {
  RelationData input = DatasetInput("musicbrainz");
  NormalizerOptions base;
  base.discovery.max_lhs_size = 2;
  base.discovery.threads = 1;
  base.shard.shard_rows = input.num_rows() + 1;

  auto reference = Normalizer(base).Normalize(input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::string dir = FreshDir("ckpt_one_shard");
  {
    FaultInjector faults;
    faults.InterruptAtNthCheck(30, StatusCode::kDeadlineExceeded);
    RunContext ctx;
    ctx.faults = &faults;
    NormalizerOptions interrupted = base;
    interrupted.context = &ctx;
    interrupted.checkpoint.dir = dir;
    auto result = Normalizer(interrupted).Normalize(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(std::filesystem::exists(dir + "/evidence.snap"));
  }

  NormalizerOptions resumed = base;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  auto result = Normalizer(resumed).Normalize(input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.resumed_stages,
            (std::vector<std::string>{"evidence"}));
  ExpectIdenticalResults(*result, *reference);
}

// Resuming against a different input or configuration must fail loudly.
TEST(CheckpointResumeFaultTest, MismatchedResumeFailsPrecondition) {
  RelationData input = DatasetInput("tpch");
  NormalizerOptions base;
  base.discovery.max_lhs_size = 2;
  base.discovery.threads = 1;

  std::string dir = FreshDir("ckpt_wrong_run");
  NormalizerOptions first = base;
  first.checkpoint.dir = dir;
  ASSERT_TRUE(Normalizer(first).Normalize(input).ok());

  NormalizerOptions other = base;
  other.discovery.max_lhs_size = 3;  // different run configuration
  other.checkpoint.dir = dir;
  other.checkpoint.resume = true;
  auto result = Normalizer(other).Normalize(input);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace normalize
