#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/quantile.hpp"
#include "service/shard.hpp"
#include "util/json.hpp"

namespace perfbench {

std::optional<double> highest_supported_percentile(std::size_t n) {
  constexpr std::array<double, 5> kLadder{99.9, 99.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly above the p-th percentile: n * (1 - p/100), counted
    // in integers (p has one decimal) so 100 samples support p90 exactly.
    const auto tenths_above = static_cast<std::size_t>(1000.0 - 10.0 * p + 0.5);
    if (n * tenths_above >= kTailSamples * 1000) return p;
  }
  return std::nullopt;
}

double percentile_or_zero(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  return omega::obs::percentile(std::move(values), p);
}

std::vector<std::size_t> quietest(const std::vector<double>& busy,
                                  std::size_t k) {
  std::vector<std::size_t> order(busy.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return busy[a] < busy[b];
                   });
  order.resize(std::min(k, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

std::uint64_t digest_lines(const std::vector<std::string>& lines) {
  std::string all;
  for (const std::string& line : lines) {
    all += line;
    all += '\n';
  }
  return omega::service::fnv1a64(all);
}

std::string hex64(std::uint64_t value) {
  std::array<char, 17> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx",
                static_cast<unsigned long long>(value));
  return buf.data();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::uint64_t> StealMeter::read() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string line;
  std::vector<std::uint64_t> out;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return out;
  std::istringstream fields(line.substr(4));
  std::uint64_t v = 0;
  while (fields >> v) out.push_back(v);
  return out;
}

double StealMeter::share() const {
  const std::vector<std::uint64_t> now = read();
  constexpr std::size_t kSteal = 7;
  if (start_.size() <= kSteal || now.size() != start_.size()) return -1.0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < now.size(); ++i) total += now[i] - start_[i];
  return total > 0 ? static_cast<double>(now[kSteal] - start_[kSteal]) /
                         static_cast<double>(total)
                   : 0.0;
}

LatencySummary summarize_latency(const std::vector<double>& samples_ms) {
  LatencySummary s;
  s.samples = samples_ms.size();
  s.p50_ms = percentile_or_zero(samples_ms, 50.0);
  s.p90_ms = percentile_or_zero(samples_ms, 90.0);
  const std::optional<double> top = highest_supported_percentile(s.samples);
  s.p90_supported = top.has_value() && *top >= 90.0;
  return s;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::fact(const std::string& name, const std::string& value) {
  facts_str_[name] = value;
}

void Report::fact(const std::string& name, double value) {
  facts_num_[name] = value;
}

void Report::latency_facts(const std::string& prefix,
                           const LatencySummary& s) {
  fact(prefix + ".samples", static_cast<double>(s.samples));
  fact(prefix + ".p90_supported", s.p90_supported ? 1.0 : 0.0);
}

void Report::fail(const std::string& reason) { problems_.push_back(reason); }

std::string Report::to_json() const {
  omega::JsonWriter w;
  w.begin_object();
  w.member("correct", correct());
  w.member("attempted", attempted);
  w.member("failed", failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics_) {
    w.key(name).begin_object();
    w.member("value", m.value);
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("record").begin_object();
  // (unexpected responses + sheds + missing) / attempted: the failed count.
  const std::uint64_t denominator = attempted > 0 ? attempted : 1;
  w.member("error_rate", static_cast<double>(failed) /
                             static_cast<double>(denominator));
  for (const auto& [name, v] : facts_num_) w.member(name, v);
  for (const auto& [name, v] : facts_str_) w.member(name, v);
  w.end_object();
  w.key("problems").begin_array();
  for (const std::string& p : problems_) w.value(p);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
