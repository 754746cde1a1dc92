// Outside-in layer timing for the repository benchmark.
//
// Nothing here reaches into the program: spans are recorded around the
// public calls the benchmark makes (Simulator's stepping API) and around the
// Scheduler interface, through a forwarding decorator. Spans stay in memory
// and are written to their own file at exit, never into the program's
// deterministic observability channel.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstddef>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "src/cloud/instance_type.h"
#include "src/sched/scheduler.h"
#include "src/sched/throughput_estimator.h"
#include "src/sched/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of this process, summed over all threads, in seconds. Printed
// beside the wall-clock throughput, never gated: it counts parallel work
// several times over and charges nothing for waits at a barrier or a lock.
inline double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// One timed interval; `parent` indexes the enclosing span (-1 at the root).
struct Span {
  const char* name = "";
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

// In-memory span tree. Spans nest strictly (Begin/End pair up like a
// stack), so the parent of a new span is the innermost open one.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  int Begin(const char* name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Total duration and self time (duration minus the children's) per span
  // name.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> Summarize() const;

  // Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const char* name) const;

  // {"spans": [[name, parent, start_s, end_s], ...]} — the file format.
  std::string ToJson() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span on construction and closes it on destruction; inert when the
// recorder is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Forwarding Scheduler decorator. Every virtual goes to the wrapped
// scheduler unchanged — BindWorkloadScale included, without which Eva's
// auto incremental-packing mode would never turn on. With a recorder it
// opens "observe", "decide" and "coalesce" spans around the three
// round-time calls, counts the tasks each decision saw, and copies every
// `capture_every`-th decision's context (up to `capture_limit`).
class TimedScheduler final : public eva::Scheduler {
 public:
  TimedScheduler(eva::Scheduler* inner, SpanRecorder* spans, int capture_every = 0,
                 std::size_t capture_limit = 0);

  std::string name() const override { return inner_->name(); }
  eva::ClusterConfig Schedule(const eva::SchedulingContext& context) override;
  void ScheduleInto(const eva::SchedulingContext& context,
                    eva::ClusterConfig& out) override;
  void ObserveThroughput(
      const std::vector<eva::JobThroughputObservation>& observations) override;
  int CoalesceQuiescentRounds(int max_rounds, eva::SimTime period_s) override;
  void BindWorkloadScale(std::size_t expected_jobs) override {
    inner_->BindWorkloadScale(expected_jobs);
  }
  void BindTrace(const eva::TraceBinding& binding) override { inner_->BindTrace(binding); }
  void ExportCounters(eva::SchedulerCounters& out) const override {
    inner_->ExportCounters(out);
  }

  std::size_t decide_calls() const { return decide_calls_; }
  std::size_t decide_tasks() const { return decide_tasks_; }
  std::vector<eva::SchedulingContext>& captured() { return captured_; }

 private:
  void NoteDecision(const eva::SchedulingContext& context);

  eva::Scheduler* inner_;
  SpanRecorder* spans_;
  int capture_every_;
  std::size_t capture_limit_;
  std::size_t decide_calls_ = 0;
  std::size_t decide_tasks_ = 0;
  std::vector<eva::SchedulingContext> captured_;
};

// Cold public-call costs of the decision path, in microseconds per
// context: each captured context is priced, packed (Full and Partial) and
// diffed through the public entry points with a fresh TnrpCalculator and no
// thread pool. These are not shares of the in-situ round, which runs with
// warm caches and may fan out.
struct ColdDecisionCosts {
  std::size_t contexts = 0;
  double tnrp_us = 0.0;
  double full_us = 0.0;
  double partial_us = 0.0;
  double diff_us = 0.0;
};

// `estimator` is the throughput table the contexts are priced against;
// `catalog` replaces each context's catalog pointer (the captured pointer
// may not outlive the simulator).
ColdDecisionCosts ReplayDecisionPath(std::vector<eva::SchedulingContext>& contexts,
                                     const eva::ThroughputEstimator* estimator,
                                     const eva::InstanceCatalog& catalog);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
