// Unit tests of the benchmark itself: the percentile helper, the quietest
// window choice, the closed loop's response store, the seeded traffic
// plans, the response digest's thread-count invariance, and the traced
// decomposition's byte-identity with the server.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "check.hpp"
#include "closed_loop.hpp"
#include "common.hpp"
#include "lines.hpp"
#include "replay.hpp"
#include "service/protocol.hpp"
#include "service/registry.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

TEST(Percentile, HighestSupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0), std::nullopt);
  EXPECT_EQ(highest_supported_percentile(19), std::nullopt);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(39), 50.0);
  EXPECT_EQ(highest_supported_percentile(40), 75.0);
  EXPECT_EQ(highest_supported_percentile(99), 75.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Percentile, LatencySummaryFlagsAnUnsupportedP90) {
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  LatencySummary s = summarize_latency(samples);
  EXPECT_EQ(s.samples, 99u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 50.0);
  EXPECT_FALSE(s.p90_supported);
  samples.push_back(100);
  s = summarize_latency(samples);
  EXPECT_DOUBLE_EQ(s.p50_ms, 50.5);
  EXPECT_NEAR(s.p90_ms, 90.1, 1e-9);
  EXPECT_TRUE(s.p90_supported);
  EXPECT_EQ(summarize_latency({}).p90_ms, 0.0);
}

TEST(Quietest, PicksTheKSmallestInIndexOrder) {
  EXPECT_EQ(quietest({5.0, 1.0, 4.0, 2.0, 3.0}, 3),
            (std::vector<std::size_t>{1, 3, 4}));
  // Ties go to the earlier window.
  EXPECT_EQ(quietest({2.0, 1.0, 1.0, 1.0}, 2),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(quietest({3.0, 1.0}, 5), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(quietest({}, 2).empty());
}

TEST(LoopResult, StoresEachDistinctResponseOfALineOnce) {
  LoopResult r;
  r.add({.index = 0, .ms = 1.0f}, "a");
  r.add({.index = 1, .ms = 2.0f}, "b");
  r.add({.index = 0, .ms = 3.0f}, "a");
  r.add({.index = 0, .ms = 4.0f}, "a2");
  r.add({.index = 1, .ms = 5.0f}, std::nullopt);
  ASSERT_EQ(r.samples.size(), 5u);
  EXPECT_EQ(r.responses, (std::vector<std::string>{"a", "b", "a2"}));
  EXPECT_EQ(r.response(r.samples[2]), "a");
  EXPECT_EQ(r.response(r.samples[3]), "a2");
  EXPECT_FALSE(r.samples[4].answered());

  LoopResult other;
  other.add({.index = 0, .ms = 6.0f}, "c");
  LoopResult merged;
  merged.append(std::move(r));
  merged.append(std::move(other));
  ASSERT_EQ(merged.samples.size(), 6u);
  EXPECT_EQ(merged.response(merged.samples[5]), "c");
  EXPECT_EQ(merged.response(merged.samples[1]), "b");
}

TEST(Digest, DependsOnEveryByteAndTheLineBreaks) {
  EXPECT_EQ(digest_lines({"a", "b"}), digest_lines({"a", "b"}));
  EXPECT_NE(digest_lines({"a", "b"}), digest_lines({"ab"}));
  EXPECT_NE(digest_lines({"a", "b"}), digest_lines({"b", "a"}));
  EXPECT_EQ(hex64(0xabcULL), "0000000000000abc");
}

TEST(Check, OnlyInflatedEvalCountersCountAsCrosstalk) {
  const GeneratedLine g{"{}", LineClass::kWarm, RegistryEffect::kHit, "", ""};
  const std::string ref =
      R"({"id":1,"ok":true,"eval":{"term_requests":40,"term_builds":0},"x":1})";
  const auto with = [](int requests, int builds, int x) {
    return R"({"id":1,"ok":true,"eval":{"term_requests":)" +
           std::to_string(requests) + R"(,"term_builds":)" +
           std::to_string(builds) + R"(},"x":)" + std::to_string(x) + "}";
  };
  std::string why;
  EXPECT_EQ(verdict(g, ref, ref, why), Verdict::kOk);
  EXPECT_EQ(verdict(g, with(90, 3, 1), ref, why), Verdict::kCounterCrosstalk);
  EXPECT_EQ(verdict(g, with(39, 0, 1), ref, why), Verdict::kBad);  // fewer
  EXPECT_EQ(verdict(g, with(90, 0, 2), ref, why), Verdict::kBad);  // other byte
  EXPECT_NE(why.find("byte"), std::string::npos);

  const GeneratedLine e{"{}", LineClass::kError, RegistryEffect::kNone,
                        "ResourceError", ""};
  const std::string err =
      R"({"id":2,"ok":false,"error":{"type":"InvalidArgumentError"}})";
  why.clear();
  EXPECT_EQ(verdict(e, err, err, why), Verdict::kBad);  // wrong error type
  EXPECT_NE(why.find("expected ResourceError"), std::string::npos);

  const std::optional<EvalCounters> split = split_eval_counters(with(7, 2, 1));
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->requests, 7u);
  EXPECT_EQ(split->builds, 2u);
  EXPECT_FALSE(split_eval_counters(R"({"id":1})").has_value());
}

TEST(Plans, SameSeedSameLinesOtherSeedOtherGraphs) {
  EXPECT_EQ(line_texts(evaluate_churn_plan(5).cycle),
            line_texts(evaluate_churn_plan(5).cycle));
  EXPECT_NE(line_texts(evaluate_churn_plan(5).cycle),
            line_texts(evaluate_churn_plan(6).cycle));
  EXPECT_EQ(line_texts(search_warm_plan(5).cycle),
            line_texts(search_warm_plan(5).cycle));
  EXPECT_NE(line_texts(search_warm_plan(5).warmup),
            line_texts(search_warm_plan(6).warmup));
}

TEST(Plans, EvaluateChurnHitsAndMissesAsDeclared) {
  // Replays the warm-up and three cycles through a registry of the daemon's
  // capacity: every line must hit or miss exactly as its plan declares.
  const TrafficPlan plan = evaluate_churn_plan(9);
  ASSERT_EQ(plan.cycle.size(), 6 * kChurnColdPool + kChurnColdPool / 4);
  std::multiset<std::string> errors;
  std::set<std::string> cold;
  for (const GeneratedLine& g : plan.cycle) {
    if (g.cls == LineClass::kError) errors.insert(g.expect_error);
    if (g.cls == LineClass::kCold) {
      cold.insert(omega::service::parse_request(g.line).workload.signature());
    }
  }
  EXPECT_EQ(cold.size(), kChurnColdPool);
  EXPECT_EQ(errors.count("ResourceError"), 1u);
  EXPECT_EQ(errors.count("InvalidArgumentError"), 3u);

  omega::service::WorkloadRegistry registry(kDaemonRegistryCapacity);
  std::vector<GeneratedLine> lines = plan.warmup;
  for (int c = 0; c < 3; ++c) {
    lines.insert(lines.end(), plan.cycle.begin(), plan.cycle.end());
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const GeneratedLine& g = lines[i];
    if (g.registry == RegistryEffect::kNone) {
      EXPECT_THROW((void)omega::service::parse_request(g.line),
                   omega::InvalidArgumentError)
          << g.line;
      continue;
    }
    const omega::service::RegistryStats before = registry.stats();
    try {
      (void)registry.acquire(omega::service::parse_request(g.line).workload);
    } catch (const omega::InvalidArgumentError&) {
      EXPECT_EQ(g.cls, LineClass::kError) << g.line;
    }
    const bool missed = registry.stats().misses > before.misses;
    EXPECT_EQ(missed, g.registry == RegistryEffect::kMiss) << "line " << i;
  }
}

TEST(Digest, SearchWarmResponsesDoNotDependOnThreadCount) {
  const TrafficPlan plan = search_warm_plan(3, 0.25);
  std::vector<GeneratedLine> lines = plan.warmup;
  lines.insert(lines.end(), plan.cycle.begin(), plan.cycle.end());
  const std::vector<std::string> many = replay_plain(line_texts(lines)).responses;
  const std::vector<std::string> one =
      replay_plain(line_texts(lines, true)).responses;
  ASSERT_EQ(many.size(), lines.size());
  EXPECT_EQ(digest_lines(many), digest_lines(one));
  for (const std::string& r : many) {
    EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  }
}

TEST(Replay, TracedDecompositionMatchesTheServerByteForByte) {
  const TrafficPlan plan = evaluate_churn_plan(4);
  std::vector<std::string> lines = line_texts(plan.warmup);
  const std::vector<std::string> cycle = line_texts(plan.cycle);
  lines.insert(lines.end(), cycle.begin(), cycle.end());
  const PlainReplay plain = replay_plain(lines);
  omega::obs::TraceCollector trace;
  TracedReplayer traced(&trace);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(traced.handle(lines[i]), plain.responses[i]) << "line " << i;
  }
  EXPECT_GT(traced.samples().miss_ms.size(), kChurnColdPool - 1);
  EXPECT_GT(traced.samples().request_s, 0.0);
  EXPECT_LE(traced.samples().attributed_s, traced.samples().request_s);
  EXPECT_FALSE(trace.empty());
}

}  // namespace
}  // namespace perfbench
