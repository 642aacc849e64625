#include "engine/schedule_cache.hpp"

#include <algorithm>

#include "engine/eval_core.hpp"    // PipelineEvalPlan, TermStore
#include "engine/gemm_engine.hpp"  // ceil_div
#include "util/error.hpp"
#include "util/once.hpp"
#include "util/saturate.hpp"

namespace omega {

LaneSchedule build_lane_schedule(const CSRGraph& walk, std::size_t lanes,
                                 std::size_t lane_width) {
  const std::size_t rows = walk.num_vertices();
  lanes = std::max<std::size_t>(lanes, 1);
  lane_width = std::max<std::size_t>(lane_width, 1);
  LaneSchedule s;
  s.row_finish.resize(rows);
  s.row_finish_prefix.resize(rows);
  std::vector<std::uint64_t> lane_cum(lanes, 0);
  std::uint64_t prefix = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t deg = walk.degree(static_cast<VertexId>(r));
    const std::uint64_t trips =
        std::max<std::uint64_t>(1, ceil_div(deg, lane_width));
    auto& cum = lane_cum[r % lanes];
    cum += trips;
    s.row_finish[r] = cum;
    prefix = std::max(prefix, cum);
    s.row_finish_prefix[r] = prefix;
    s.total_steps += trips;
  }
  for (const std::uint64_t c : lane_cum) {
    s.critical_path = std::max(s.critical_path, c);
  }
  return s;
}

WorkloadContext::WorkloadContext(const CSRGraph& adjacency)
    : adjacency_(&adjacency), terms_(std::make_unique<const TermStore>()) {}

WorkloadContext::~WorkloadContext() = default;

const CSRGraph& WorkloadContext::reverse_graph() const {
  // Pin the shared transpose for the context's lifetime so repeated lookups
  // are a pointer read even if the source graph's cache is later invalidated.
  call_once_caching(reverse_once_, reverse_error_,
                    [&] { reverse_ = adjacency_->shared_transposed(); });
  return *reverse_;
}

std::shared_ptr<const LaneSchedule> WorkloadContext::lane_schedule(
    bool gather, std::size_t lanes, std::size_t lane_width) const {
  const Key key{gather, lanes, lane_width};
  std::shared_ptr<Entry> entry;
  {
    const std::scoped_lock lock(mutex_);
    auto& slot = schedules_[key];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }
  call_once_caching(entry->once, entry->error, [&] {
    const CSRGraph& walk = gather ? graph() : reverse_graph();
    entry->schedule = std::make_shared<const LaneSchedule>(
        build_lane_schedule(walk, lanes, lane_width));
  });
  return entry->schedule;
}

std::size_t WorkloadContext::schedule_cache_size() const {
  const std::scoped_lock lock(mutex_);
  return schedules_.size();
}

std::size_t WorkloadContext::phase_cache_size() const { return terms_->size(); }

std::size_t WorkloadContext::phase_memo_overflow() const {
  return terms_->refusals();
}

std::shared_ptr<const PipelineEvalPlan> WorkloadContext::eval_plan(
    const std::string& signature,
    const std::function<std::shared_ptr<const PipelineEvalPlan>()>& build)
    const {
  std::shared_ptr<PlanEntry> entry;
  {
    const std::scoped_lock lock(mutex_);
    auto& slot = eval_plans_[signature];
    if (!slot) slot = std::make_shared<PlanEntry>();
    entry = slot;
  }
  call_once_caching(entry->once, entry->error, [&] { entry->plan = build(); });
  return entry->plan;
}

std::size_t WorkloadContext::eval_plan_count() const {
  const std::scoped_lock lock(mutex_);
  return eval_plans_.size();
}

ContextEvalStats WorkloadContext::eval_stats() const {
  return {.plans = eval_plan_count(),
          .terms = terms_->size(),
          .term_requests = terms_->requests(),
          .term_builds = terms_->builds(),
          .term_bytes = terms_->timeline_bytes(),
          .pp_pairs = terms_->pp_pairs(),
          .pp_compositions = terms_->pp_compositions()};
}

ContextEvalStats& ContextEvalStats::operator+=(const ContextEvalStats& o) {
  plans += o.plans;
  terms += o.terms;
  term_requests += o.term_requests;
  term_builds += o.term_builds;
  term_bytes = sat_add_u64(term_bytes, o.term_bytes);
  pp_pairs += o.pp_pairs;
  pp_compositions += o.pp_compositions;
  return *this;
}

}  // namespace omega
