// Graceful degradation of the end-to-end pipeline: a deadline mid-discovery
// must still yield a usable normalization (bounded rerun or sound partial
// cover, with the interruption recorded in the stats), cancellation must
// abort with kCancelled, and transient ingest faults must be retried to a
// result identical to the fault-free run.
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_context.hpp"
#include "normalize/normalizer.hpp"
#include "relation/csv.hpp"
#include "shard/sharded_csv.hpp"
#include "test_util.hpp"

namespace normalize {
namespace {

/// A denormalized relation with enough structure to decompose: id is a key,
/// zip determines city/mayor/state, city determines state. 400 rows keep
/// discovery non-trivial but fast.
const RelationData& DenormalizedInput() {
  static const RelationData* data = [] {
    std::vector<std::vector<std::string>> rows;
    for (int i = 0; i < 400; ++i) {
      int zip = i % 40;
      rows.push_back({std::to_string(i),                      // id
                      "person" + std::to_string(i % 80),      // name
                      "z" + std::to_string(zip),              // zip
                      "city" + std::to_string(zip % 20),      // city
                      "mayor" + std::to_string(zip % 20),     // mayor
                      "state" + std::to_string(zip % 5),      // state
                      std::to_string(i % 7)});                // bucket
    }
    return new RelationData(normalize::testing::MakeRelation(
        rows, {"id", "name", "zip", "city", "mayor", "state", "bucket"},
        "denorm"));
  }();
  return *data;
}

/// The two pipeline drivers; both end in the same discovery stage, so a
/// deadline in discovery must degrade the same way through either.
enum class Driver { kNormalize, kNormalizeCsvFile };

/// Runs DenormalizedInput() through `driver` with a deadline injected at the
/// `nth` context check of discovery. NormalizeCsvFile also polls the context
/// while it ingests, and an interruption there fails the run instead of
/// degrading, so its index is offset past the ingest's checks.
Result<NormalizationResult> RunWithDeadlineInDiscovery(
    Driver driver, NormalizerOptions options, uint64_t nth) {
  // One file per test case: ctest runs the cases concurrently.
  std::string path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  if (driver == Driver::kNormalizeCsvFile) {
    std::ofstream(path, std::ios::binary)
        << CsvWriter().WriteString(DenormalizedInput());
    FaultInjector counter;
    RunContext counting;
    counting.faults = &counter;
    ShardedCsvReader reader(CsvOptions(), options.shard, &counting);
    EXPECT_TRUE(reader.ReadFile(path).ok());
    nth += counter.checks();
  }
  FaultInjector faults;
  faults.InterruptAtNthCheck(nth, StatusCode::kDeadlineExceeded);
  RunContext ctx;
  ctx.faults = &faults;
  options.context = &ctx;
  Normalizer normalizer(options);
  auto result = driver == Driver::kNormalize
                    ? normalizer.Normalize(DenormalizedInput())
                    : normalizer.NormalizeCsvFile(path);
  std::remove(path.c_str());
  return result;
}

TEST(DeadlineDegradationTest, DeadlineMidDiscoveryDegradesToBoundedRerun) {
  for (Driver driver : {Driver::kNormalize, Driver::kNormalizeCsvFile}) {
    SCOPED_TRACE(driver == Driver::kNormalize ? "Normalize"
                                              : "NormalizeCsvFile");
    NormalizerOptions options;
    options.discovery.threads = 1;
    ASSERT_TRUE(options.degrade_on_deadline);
    auto result = RunWithDeadlineInDiscovery(driver, options, 2);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The run degraded instead of failing: the stats carry the deadline,
    // the skip log says what was curtailed, and the discovery was rerun
    // bounded.
    EXPECT_EQ(result->stats.completion.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(result->stats.skipped.empty());
    EXPECT_TRUE(result->stats.degraded_discovery);
    EXPECT_FALSE(result->schema.relations().empty());
    EXPECT_GT(result->stats.num_fds, 0u);
  }
}

TEST(DeadlineDegradationTest, DisabledFallbackContinuesOnPartialCover) {
  for (Driver driver : {Driver::kNormalize, Driver::kNormalizeCsvFile}) {
    SCOPED_TRACE(driver == Driver::kNormalize ? "Normalize"
                                              : "NormalizeCsvFile");
    NormalizerOptions options;
    options.discovery.threads = 1;
    options.degrade_on_deadline = false;
    auto result = RunWithDeadlineInDiscovery(driver, options, 2);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.completion.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(result->stats.degraded_discovery);
    EXPECT_FALSE(result->stats.skipped.empty());
  }
}

TEST(DeadlineDegradationTest, CompletedRunReportsOkCompletion) {
  RunContext ctx;
  ctx.deadline = Deadline::AfterSeconds(3600.0);  // generous
  NormalizerOptions options;
  options.discovery.threads = 1;
  options.context = &ctx;
  Normalizer normalizer(options);
  auto result = normalizer.Normalize(DenormalizedInput());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.completion.ok());
  EXPECT_TRUE(result->stats.skipped.empty());
  EXPECT_FALSE(result->stats.degraded_discovery);
  // The deadline never fired, so the run matches an unconstrained one.
  auto unconstrained = Normalizer(NormalizerOptions{}).Normalize(
      DenormalizedInput());
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_EQ(result->schema.ToString(), unconstrained->schema.ToString());
}

TEST(DeadlineDegradationTest, CancellationAbortsTheRun) {
  RunContext ctx;
  ctx.cancel.Cancel();
  NormalizerOptions options;
  options.discovery.threads = 1;
  options.context = &ctx;
  Normalizer normalizer(options);
  auto result = normalizer.Normalize(DenormalizedInput());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// --- adaptive degradation: PickDegradedMaxLhs ------------------------------

TEST(AdaptiveDegradationTest, PicksLargestLevelFittingHalfTheBudget) {
  PhaseMetrics phases;
  phases.Record("discovery/validation_L1", 0.1);
  phases.Record("discovery/validation_L2", 0.3);
  phases.Record("discovery/validation_L3", 2.0);
  // Half of the 1.0s budget is 0.5s: L1 (0.1) and L1+L2 (0.4) fit, L3 not.
  EXPECT_EQ(PickDegradedMaxLhs(phases, 1.0), 2);
  // A bigger budget admits the deepest recorded level.
  EXPECT_EQ(PickDegradedMaxLhs(phases, 10.0), 3);
  // A budget too tight for even level 1 yields 0 (constant fallback).
  EXPECT_EQ(PickDegradedMaxLhs(phases, 0.1), 0);
}

TEST(AdaptiveDegradationTest, ParsesEveryBackendsLevelRecords) {
  PhaseMetrics merge;
  merge.Record("merge_validation_L1", 0.05);
  merge.Record("merge_validation_L2", 0.05);
  EXPECT_EQ(PickDegradedMaxLhs(merge, 1.0), 2);

  PhaseMetrics tane;
  tane.Record("discovery/compute_deps_L1", 0.05);
  tane.Record("discovery/compute_deps_L2", 0.1);
  tane.Record("discovery/compute_deps_L3", 5.0);
  EXPECT_EQ(PickDegradedMaxLhs(tane, 1.0), 2);
}

TEST(AdaptiveDegradationTest, IgnoresNonLevelRecordsAndBadBudgets) {
  PhaseMetrics phases;
  phases.Record("discovery/sampling", 0.2);
  phases.Record("discovery/induction", 0.1);
  EXPECT_EQ(PickDegradedMaxLhs(phases, 10.0), 0);  // no level records

  phases.Record("discovery/validation_L1", 0.01);
  EXPECT_EQ(PickDegradedMaxLhs(phases, 10.0), 1);
  // Injected interruptions come with no real deadline: an infinite or
  // non-positive budget must not pick the max level by accident.
  EXPECT_EQ(PickDegradedMaxLhs(
                phases, std::numeric_limits<double>::infinity()),
            0);
  EXPECT_EQ(PickDegradedMaxLhs(phases, 0.0), 0);
  EXPECT_EQ(PickDegradedMaxLhs(phases, -1.0), 0);
}

TEST(AdaptiveDegradationTest, RealDeadlinePicksBoundFromRecordedLevels) {
  // A real (generous) deadline plus an injected interruption after level-1
  // validation completed: the rerun bound comes from the recorded levels,
  // not the constant.
  FaultInjector faults;
  faults.InterruptAtNthCheck(30, StatusCode::kDeadlineExceeded);
  RunContext ctx;
  ctx.deadline = Deadline::AfterSeconds(3600.0);
  ctx.faults = &faults;

  NormalizerOptions options;
  options.discovery.threads = 1;
  options.context = &ctx;
  Normalizer normalizer(options);
  auto result = normalizer.Normalize(DenormalizedInput());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->stats.degraded_discovery);
  EXPECT_GT(result->stats.adaptive_degraded_max_lhs, 0);
  // The skip log names the adaptive choice.
  bool noted = false;
  for (const std::string& note : result->stats.skipped) {
    if (note.find("(adaptive)") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(AdaptiveDegradationTest, ConstantFallbackWhenDisabledOrNoRecords) {
  // Disabled: the constant bound is used even with usable level records.
  {
    FaultInjector faults;
    faults.InterruptAtNthCheck(30, StatusCode::kDeadlineExceeded);
    RunContext ctx;
    ctx.deadline = Deadline::AfterSeconds(3600.0);
    ctx.faults = &faults;
    NormalizerOptions options;
    options.discovery.threads = 1;
    options.context = &ctx;
    options.adaptive_degradation = false;
    auto result = Normalizer(options).Normalize(DenormalizedInput());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->stats.degraded_discovery);
    EXPECT_EQ(result->stats.adaptive_degraded_max_lhs, 0);
  }
  // Interrupted before any validation level completed (check #2 fires in
  // sampling): no per-level records exist, so adaptive yields 0 and the
  // constant bound drives the rerun.
  {
    FaultInjector faults;
    faults.InterruptAtNthCheck(2, StatusCode::kDeadlineExceeded);
    RunContext ctx;
    ctx.deadline = Deadline::AfterSeconds(3600.0);
    ctx.faults = &faults;
    NormalizerOptions options;
    options.discovery.threads = 1;
    options.context = &ctx;
    auto result = Normalizer(options).Normalize(DenormalizedInput());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->stats.degraded_discovery);
    EXPECT_EQ(result->stats.adaptive_degraded_max_lhs, 0);
  }
}

TEST(NormalizeIngestFaultTest, TransientIngestFaultsAreRetriedToSameResult) {
  std::string path = ::testing::TempDir() + "/degradation_ingest_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << CsvWriter().WriteString(DenormalizedInput());
  }

  NormalizerOptions base;
  base.discovery.threads = 1;
  base.shard.shard_rows = 64;
  base.shard.memory_budget_bytes = 4096;
  auto baseline = Normalizer(base).NormalizeCsvFile(path);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->stats.ingest_retries, 0u);

  FaultInjector faults;
  faults.FailNthRead(2, Status::Unavailable("injected transient EIO"));
  faults.FailNthRead(5, Status::Unavailable("injected transient EIO"));
  RunContext ctx;
  ctx.faults = &faults;
  NormalizerOptions faulty = base;
  faulty.context = &ctx;
  faulty.ingest_retry.initial_backoff_ms = 0.1;
  faulty.ingest_retry.max_backoff_ms = 0.5;
  auto retried = Normalizer(faulty).NormalizeCsvFile(path);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();

  EXPECT_GE(retried->stats.ingest_retries, 1u);
  EXPECT_TRUE(retried->stats.completion.ok())
      << retried->stats.completion.ToString();
  // The faulting run recovered to the identical schema and FD count.
  EXPECT_EQ(retried->schema.ToString(), baseline->schema.ToString());
  EXPECT_EQ(retried->stats.num_fds, baseline->stats.num_fds);
  std::remove(path.c_str());
}

TEST(NormalizeIngestFaultTest, OversizedRecordSurfacesResourceExhausted) {
  std::string path = ::testing::TempDir() + "/degradation_oversized_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,\"" << std::string(4096, 'x') << "\"\n";
  }
  NormalizerOptions options;
  options.shard.shard_rows = 4;
  options.shard.memory_budget_bytes = 256;
  auto result = Normalizer(options).NormalizeCsvFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace normalize
