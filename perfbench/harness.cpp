#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <random>
#include <set>

#include "normalize/normalizer.hpp"
#include "obs/export.hpp"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"op_ms", "ms"},
      {"op2_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"relation.csv_read_s", "s"},
      {"discovery.sampling_s", "s"},
      {"discovery.induction_s", "s"},
      {"discovery.validation_s", "s"},
      {"discovery.validation_checks", "count"},
      {"discovery.fds", "count"},
      {"shard.ingest_s", "s"},
      {"shard.discovery_s", "s"},
      {"shard.evidence_exchange_s", "s"},
      {"shard.merge_validation_s", "s"},
      {"shard.cross_shard_violations", "count"},
      {"closure.extend_s", "s"},
      {"closure.fds_in", "count"},
      {"normalize.key_derivation_s", "s"},
      {"normalize.violation_detection_s", "s"},
      {"normalize.rest_s", "s"},
      {"normalize.decompositions", "count"},
      {"normalize.relations", "count"},
      {"live.apply_batch_ms", "ms"},
      {"live.probe_ms", "ms"},
      {"live.publish_ms", "ms"},
      {"live.rebuilds_per_batch", "count"},
      {"live.full_validations_per_batch", "count"},
      {"live.guided_probes_per_batch", "count"},
      {"live.violations_per_batch", "count"},
      {"live.reseat_ratio", "ratio"},
      {"live.initialize_s", "s"},
      {"live.first_batch_ms", "ms"},
      {"service.ack_p90_ms", "ms"},
      {"service.recover_s", "s"},
      {"service.write_bytes_per_op", "B/op"},
      {"service.wal_append_ms", "ms"},
      {"service.queue_ms", "ms"},
      {"service.checkpoint_ms", "ms"},
      {"service.checkpoints", "count"},
      {"service.wal_bytes_per_op", "B/op"},
      {"persist.checkpoint_bytes", "B"},
      {"service.materialize_ms", "ms"},
      {"service.wal_replay_s", "s"},
      {"service.recovered_wal_records", "count"},
      {"obs.tracing_overhead", "ratio"},
  };
  return kMetrics;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : (sorted[mid - 1] + sorted[mid]) / 2.0;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

int Samples::TailPercentile() const {
  if (values_.size() < 11) return -1;
  // Nearest rank r leaves n - r samples beyond it; need n - r >= 10.
  double n = static_cast<double>(values_.size());
  return static_cast<int>(std::floor(100.0 * (n - 10.0) / n));
}

bool Outcome::Run(std::string_view what,
                  const std::function<normalize::Status()>& op) {
  ++attempted_;
  normalize::Status status;
  try {
    status = op();
  } catch (const std::bad_alloc&) {
    status = normalize::Status::ResourceExhausted(
        "std::bad_alloc under the address-space ceiling");
  }
  if (status.ok()) return true;
  ++failed_;
  if (failed_ <= 5) {
    std::cout << "failed op " << what << ": " << status.ToString() << "\n";
  }
  return false;
}

normalize::Status CheckFailed(const std::string& what) {
  return normalize::Status::Internal("output check failed: " + what);
}

void Report::Record(const std::string& key, const std::string& value) {
  std::cout << "record " << key << "=" << value << "\n";
}

void Report::Timed(const std::string& name, const std::string& unit,
                   const Samples& samples, double scale) {
  std::cout << "metric " << name << " = "
            << FormatNumber(samples.Median() * scale) << " " << unit
            << "  (median of " << samples.count() << " samples; p10 = "
            << FormatNumber(samples.Percentile(0.1) * scale) << ", p25 = "
            << FormatNumber(samples.Percentile(0.25) * scale);
  int tail = samples.TailPercentile();
  if (tail > 0) {
    std::cout << "; p" << tail << " = "
              << FormatNumber(samples.Percentile(tail / 100.0) * scale) << " "
              << unit;
  }
  std::cout << ")\n";
}

void Report::Value(const std::string& name, const std::string& unit,
                   double value) {
  std::cout << "metric " << name << " = " << FormatNumber(value) << " "
            << unit << "\n";
}

void Report::EndToEnd(const std::string& name, double value) {
  end_to_end_[name] = value;
}

void Report::Layer(const std::string& name, double value) {
  layers_[name] = value;
}

void Report::PrintResult(const Config& config, const Outcome& outcome) const {
  const std::vector<MetricSpec>& specs =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  const std::map<std::string, double>& values =
      config.trace ? layers_ : end_to_end_;
  bool correct = outcome.failed() == 0 && outcome.attempted() > 0;
  std::set<std::string> known;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    known.insert(spec.name);
    double value = 0.0;
    auto it = values.find(spec.name);
    if (it != values.end()) {
      value = it->second;
    } else if (!config.trace) {
      std::cout << "error: end-to-end metric " << spec.name
                << " was not measured\n";
      correct = false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " +
               FormatNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) {
      std::cout << "error: undeclared metric " << name << "\n";
      correct = false;
    }
  }
  if (config.trace) {
    for (const MetricSpec& spec : specs) {
      auto it = values.find(spec.name);
      std::cout << "layer " << spec.name << " = "
                << (it != values.end() ? FormatNumber(it->second)
                                       : std::string("0 (not on this path)"))
                << " " << spec.unit << "\n";
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted()
            << ", \"failed\": " << outcome.failed() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
}

void LayerSamples::AddNormalizeLayers(
    const normalize::NormalizationResult& result) {
  const normalize::NormalizationStats& stats = result.stats;
  Add("closure.extend_s", stats.closure_s);
  if (const auto* closure = stats.phases.Find("closure")) {
    Add("closure.fds_in", static_cast<double>(closure->count));
  }
  Add("normalize.key_derivation_s", stats.key_derivation_total_s);
  Add("normalize.violation_detection_s", stats.violation_detection_total_s);
  Add("normalize.rest_s", stats.total_s - stats.fd_discovery_s -
                              stats.closure_s - stats.key_derivation_total_s -
                              stats.violation_detection_total_s -
                              PhaseSeconds(result, "shard_ingest"));
  Add("normalize.decompositions", stats.decompositions);
  Add("normalize.relations", static_cast<double>(result.relations.size()));
}

void LayerSamples::AddDiscoveryLayers(
    const normalize::NormalizationResult& result) {
  Add("discovery.sampling_s", PhaseSeconds(result, "discovery/sampling"));
  Add("discovery.induction_s", PhaseSeconds(result, "discovery/induction"));
  Add("discovery.validation_s", PhaseSeconds(result, "discovery/validation"));
  const auto* validation = result.stats.phases.Find("discovery/validation");
  if (validation != nullptr) {
    Add("discovery.validation_checks", static_cast<double>(validation->count));
  }
  Add("discovery.fds", static_cast<double>(result.stats.num_fds));
}

void LayerSamples::ReportMedians(Report* report) const {
  for (const auto& [name, samples] : samples_) {
    report->Layer(name, samples.Median());
  }
}

Tracing::Tracing() : tracer(normalize::TracerOptions{size_t{1} << 18}) {}

void Tracing::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << normalize::ToMetricsJson(registry.Snapshot(), tracer.Export());
  if (!out) std::cout << "warning: could not write trace file " << path << "\n";
}

size_t OpsFor(double seconds, double nominal_op_s, size_t min_ops) {
  double ops = std::floor(std::max(0.0, seconds) / nominal_op_s);
  return std::max(min_ops, static_cast<size_t>(ops));
}

double PhaseSeconds(const normalize::NormalizationResult& result,
                    const std::string& name) {
  const auto* phase = result.stats.phases.Find(name);
  return phase == nullptr ? 0.0 : phase->seconds;
}

normalize::RelationData ShuffleRows(const normalize::RelationData& relation,
                                    uint64_t seed) {
  std::vector<size_t> order(relation.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  normalize::RelationData shuffled =
      normalize::RelationData::EmptyLike(relation, relation.name());
  std::vector<normalize::ValueId> codes(relation.num_columns());
  for (size_t row : order) {
    for (int c = 0; c < relation.num_columns(); ++c) {
      codes[c] = relation.column(c).code(row);
    }
    shuffled.AppendRowCodes(codes);
  }
  return shuffled;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double PeakAddressSpaceMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmPeak:", 0) == 0) {
      return std::strtod(line.c_str() + 7, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  // Shortest text that reads back as the same double: every digit kept.
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace perfbench
