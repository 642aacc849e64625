#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "util/parallel.hpp"

namespace omega::service {

namespace {

constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();

std::string band_metric(const char* stem, std::uint64_t band) {
  return std::string(stem) + std::to_string(band);
}

}  // namespace

RequestScheduler::RequestScheduler(Handler handler, SchedulerOptions options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.bands == 0) options_.bands = 1;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  bands_.resize(options_.bands);
}

RequestScheduler::~RequestScheduler() { stop(); }

std::uint64_t RequestScheduler::now_us() const {
  if (options_.now_us) return options_.now_us();
  // omega-lint: allow(wall-clock): deadline scheduling is inherently wall-clock; tests inject options_.now_us
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // omega-lint: allow(wall-clock): monotonic dispatch clock, metrics-only, never goldened
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RequestScheduler::start() {
  const std::size_t n =
      options_.workers > 0 ? options_.workers : default_thread_count();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void RequestScheduler::stop() {
  std::vector<Entry> orphans;
  {
    std::unique_lock lock(mutex_);
    if (stopped_) return;
    draining_ = true;
    if (workers_.empty()) {
      // Manual-drive mode (tests; start() never called): nothing will drain
      // the queue, so shed whatever is still waiting.
      for (BandQueue& band : bands_) {
        for (auto& [key, entry] : band) orphans.push_back(std::move(entry));
        band.clear();
      }
      depth_ = 0;
      update_depth_gauge_locked();
    } else {
      // Every admitted entry still completes: workers keep dispatching
      // until the queue is empty, then the stop flag releases them.
      drain_cv_.wait(lock, [this] { return depth_ == 0 && active_ == 0; });
    }
    stopped_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  for (Entry& e : orphans) {
    shed(std::move(e), "scheduler is shutting down",
         "service.sched.shed.shutdown");
  }
}

std::size_t RequestScheduler::queue_depth() const {
  const std::scoped_lock lock(mutex_);
  return depth_;
}

void RequestScheduler::update_depth_gauge_locked() {
  if (options_.metrics != nullptr) {
    options_.metrics->set_gauge("service.sched.queue_depth",
                                static_cast<double>(depth_));
  }
}

void RequestScheduler::shed(Entry e, const char* reason, const char* counter) {
  if (options_.metrics != nullptr) {
    options_.metrics->add("service.sched.shed", 1);
    options_.metrics->add(counter, 1);
  }
  e.done(error_response(e.meta.id, "overloaded", reason, e.meta.version),
         /*shed=*/true);
}

SubmitOutcome RequestScheduler::submit(std::string line,
                                       const SubmitMeta& meta,
                                       Completion done) {
  Entry entry;
  entry.line = std::move(line);
  entry.meta = meta;
  entry.meta.priority =
      std::min<std::uint64_t>(meta.priority, options_.bands - 1);
  entry.done = std::move(done);
  entry.admit_us = now_us();
  entry.deadline_us = meta.deadline_ms == 0
                          ? kNoDeadline
                          : entry.admit_us + meta.deadline_ms * 1000;
  if (options_.metrics != nullptr) {
    options_.metrics->add("service.sched.submitted", 1);
  }

  if (meta.deadline_ms != 0 &&
      meta.deadline_ms < options_.min_feasible_deadline_ms) {
    shed(std::move(entry), "deadline below the feasible-service threshold",
         "service.sched.shed.deadline");
    return SubmitOutcome::kShedInfeasible;
  }

  // Decide under the lock; fire completions outside it (a completion writes
  // to the transport and must never run while holding the queue mutex).
  SubmitOutcome outcome = SubmitOutcome::kAdmitted;
  Entry victim;
  bool have_victim = false;
  {
    const std::scoped_lock lock(mutex_);
    if (draining_) {
      outcome = SubmitOutcome::kShedShutdown;
    } else {
      if (depth_ >= options_.max_queue_depth) {
        // Full queue: evict the worst lower-band entry (latest deadline,
        // newest admission within it) if the incoming request outranks it;
        // otherwise the incoming request is the one shed. A low-priority
        // flood therefore sheds itself, never queued high-priority work.
        for (std::size_t b = 0; b < entry.meta.priority; ++b) {
          if (bands_[b].empty()) continue;
          const auto last = std::prev(bands_[b].end());
          victim = std::move(last->second);
          bands_[b].erase(last);
          --depth_;
          have_victim = true;
          break;
        }
        if (!have_victim) outcome = SubmitOutcome::kShedQueueFull;
      }
      if (outcome == SubmitOutcome::kAdmitted) {
        bands_[entry.meta.priority].emplace(
            std::make_pair(entry.deadline_us, next_seq_++), std::move(entry));
        ++depth_;
        update_depth_gauge_locked();
        work_cv_.notify_one();
      }
    }
  }
  if (have_victim) {
    shed(std::move(victim), "evicted by a higher-priority request",
         "service.sched.shed.queue_full");
  }
  if (outcome == SubmitOutcome::kShedQueueFull) {
    shed(std::move(entry), "admission queue is full",
         "service.sched.shed.queue_full");
  } else if (outcome == SubmitOutcome::kShedShutdown) {
    shed(std::move(entry), "scheduler is shutting down",
         "service.sched.shed.shutdown");
  }
  return outcome;
}

RequestScheduler::Entry RequestScheduler::pop_best_locked() {
  for (std::size_t b = bands_.size(); b-- > 0;) {
    if (bands_[b].empty()) continue;
    const auto it = bands_[b].begin();
    Entry e = std::move(it->second);
    bands_[b].erase(it);
    --depth_;
    update_depth_gauge_locked();
    return e;
  }
  return {};  // unreachable while depth_ > 0 under the lock
}

void RequestScheduler::process(Entry e) {
  const std::uint64_t band = e.meta.priority;
  const std::uint64_t start = now_us();
  if (e.deadline_us <= start) {
    shed(std::move(e), "deadline expired before dispatch",
         "service.sched.shed.deadline");
    return;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->add("service.sched.dispatched", 1);
    options_.metrics->observe(band_metric("service.sched.queue_us.band", band),
                              start - e.admit_us);
  }
  std::string response;
  try {
    response = handler_(e.line);
  } catch (const std::exception& ex) {
    // Backstop: MappingService::handle_line never throws, but the scheduler
    // is generic over its handler and a dispatch thread must not die.
    response =
        error_response(e.meta.id, "Internal", ex.what(), e.meta.version);
  }
  // Recorded before the completion runs: a session counts the request as
  // in flight until its completion has run, so a metrics barrier that
  // drains the session sees every earlier request's latency sample.
  if (options_.metrics != nullptr) {
    options_.metrics->observe(
        band_metric("service.sched.latency_us.band", band),
        now_us() - e.admit_us);
  }
  e.done(std::move(response), /*shed=*/false);
}

bool RequestScheduler::run_one() {
  Entry e;
  {
    const std::scoped_lock lock(mutex_);
    if (depth_ == 0) return false;
    e = pop_best_locked();
    ++active_;
  }
  process(std::move(e));
  {
    const std::scoped_lock lock(mutex_);
    --active_;
    if (depth_ == 0 && active_ == 0) drain_cv_.notify_all();
  }
  return true;
}

void RequestScheduler::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return depth_ > 0 || stopped_; });
    if (depth_ == 0) {
      if (stopped_) return;
      continue;
    }
    Entry e = pop_best_locked();
    ++active_;
    lock.unlock();
    process(std::move(e));
    lock.lock();
    --active_;
    if (depth_ == 0 && active_ == 0) drain_cv_.notify_all();
  }
}

}  // namespace omega::service
