// Shared plumbing of the repository benchmark: run configuration, sample
// statistics, op/failure accounting, and the report that prints the run
// record, every metric by name with its unit, and the closing JSON line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "relation/relation_data.hpp"
#include "obs/span.hpp"

namespace normalize {
struct NormalizationResult;
}

namespace perfbench {

struct Config {
  std::string workload;
  /// Workload seed: drives the generated dataset and the update stream.
  uint64_t seed = 1;
  /// Nominal length of the measured phase: each workload runs a fixed op
  /// count that takes about this long on the reference VM (see OpsFor).
  double seconds = 20.0;
  /// Traced run: the measured phase runs twice, untraced then traced, and
  /// the report carries the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Scratch directory of this run (CSV, service data dirs); removed at exit.
  std::string work_dir;
  /// Traced runs write their registry + span snapshot here.
  std::string trace_path;
};

/// The end-to-end metrics every workload reports (one role each; README.md
/// maps each role to the workload's own operation), and the per-layer
/// metrics of the traced run. Must match BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Timed samples of one population: one op kind, one batch size, one mix.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  double Sum() const;
  double Median() const;
  /// Nearest-rank percentile, q in [0, 1].
  double Percentile(double q) const;
  /// The highest whole percentile with at least ten samples beyond it;
  /// -1 when there are fewer than eleven samples.
  int TailPercentile() const;

 private:
  std::vector<double> values_;
};

/// Failure accounting: an op fails on a non-OK Status, a failed output
/// check, or a caught std::bad_alloc.
class Outcome {
 public:
  /// Runs `op` once and counts it. Returns whether it succeeded; the first
  /// few failures are printed with their reason.
  bool Run(std::string_view what, const std::function<normalize::Status()>& op);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A failed output check, as the Status an op returns.
normalize::Status CheckFailed(const std::string& what);

class Report {
 public:
  /// One run-record line: `record <key>=<value>`.
  void Record(const std::string& key, const std::string& value);
  /// A timed population under its workload-specific name: prints the
  /// median, sample count and tail percentile (value in `unit`, samples in
  /// seconds and scaled by `scale`).
  void Timed(const std::string& name, const std::string& unit,
             const Samples& samples, double scale = 1.0);
  /// A workload-specific end-to-end value that is not a sample median.
  void Value(const std::string& name, const std::string& unit, double value);
  /// Sets an end-to-end role metric (EndToEndMetrics()).
  void EndToEnd(const std::string& name, double value);
  /// Sets a per-layer metric (PerLayerMetrics()).
  void Layer(const std::string& name, double value);

  /// Prints the closing JSON line. Per-layer metrics of layers this
  /// workload does not run read 0; a missing end-to-end metric is a
  /// benchmark bug and makes the run incorrect.
  void PrintResult(const Config& config, const Outcome& outcome) const;

 private:
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layers_;
};

/// Per-layer samples keyed by metric name; the report takes their medians.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) { samples_[name].Add(value); }
  /// Adds the paper's components (2)-(7) of one normalization result:
  /// closure, key derivation, violation detection, and the remainder of
  /// `total_s` (scoring, decomposition, primary-key selection), plus the
  /// decomposition and relation counts.
  void AddNormalizeLayers(const normalize::NormalizationResult& result);
  /// Adds the discovery phase records ("discovery/<phase>") of `result`.
  void AddDiscoveryLayers(const normalize::NormalizationResult& result);
  void ReportMedians(Report* report) const;

 private:
  std::map<std::string, Samples> samples_;
};

/// The traced phase's sinks: the program's own registry and tracer, handed
/// to each layer through its public options, plus the benchmark's spans at
/// its calls into the layers (one root per op, one child per public call).
struct Tracing {
  Tracing();
  normalize::MetricsRegistry registry;
  normalize::Tracer tracer;
  /// Writes registry + spans as one metrics JSON snapshot (obs/export.hpp).
  void Write(const std::string& path) const;
};

/// Op count of a measured phase: `seconds` worth of ops at `nominal_op_s`
/// each (the op's typical cost on the 4-vCPU reference VM), at least
/// `min_ops`. A fixed count, not a timed loop, keeps the work, and so the
/// state and the peak memory, the same on a slow run and a fast one.
size_t OpsFor(double seconds, double nominal_op_s, size_t min_ops);

/// Seconds spent in the phase record `name` (0 when absent).
double PhaseSeconds(const normalize::NormalizationResult& result,
                    const std::string& name);

/// `relation` with its rows in a seed-determined order (Fisher-Yates over
/// mt19937_64). The content, and so every FD, key and schema, is unchanged.
normalize::RelationData ShuffleRows(const normalize::RelationData& relation,
                                    uint64_t seed);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Peak address-space size of this process so far (VmPeak), in MiB: what
/// the RLIMIT_AS ceiling bounds. 0 when /proc is unavailable.
double PeakAddressSpaceMb();

/// Formats a double with all significant digits (JSON-safe, no NaN/Inf).
std::string FormatNumber(double value);

// The workloads, one translation unit each. They fill the report and count
// their ops; main prints the closing line.
void RunTpchCsv(const Config& config, Report* report, Outcome* outcome);
void RunHorseFds(const Config& config, Report* report, Outcome* outcome);
void RunTpchService(const Config& config, Report* report, Outcome* outcome);
void RunDefectRepro(const Config& config, Report* report, Outcome* outcome);

}  // namespace perfbench
