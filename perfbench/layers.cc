#include "layers.h"

#include "src/core/full_reconfig.h"
#include "src/core/partial_reconfig.h"
#include "src/sched/config_diff.h"
#include "src/sched/reservation_price.h"

namespace perfbench {

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  open_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_s - spans_[i].start_s;
    Totals& t = totals[spans_[i].name];
    t.total_s += duration;
    t.self_s += duration - child_s[i];
  }
  return totals;
}

std::vector<double> SpanRecorder::Durations(const char* name) const {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Span& span : spans_) {
    if (wanted == span.name) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

std::string SpanRecorder::ToJson() const {
  std::string out = "{\"columns\": [\"name\", \"parent\", \"start_s\", \"end_s\"], \"spans\": [";
  char buffer[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buffer, sizeof(buffer), "%s[\"%s\", %d, %.9f, %.9f]", i == 0 ? "" : ",\n",
                  span.name, span.parent, span.start_s, span.end_s);
    out += buffer;
  }
  out += "]}";
  return out;
}

TimedScheduler::TimedScheduler(eva::Scheduler* inner, SpanRecorder* spans, int capture_every,
                               std::size_t capture_limit)
    : inner_(inner),
      spans_(spans),
      capture_every_(capture_every),
      capture_limit_(capture_limit) {}

void TimedScheduler::NoteDecision(const eva::SchedulingContext& context) {
  if (capture_every_ > 0 && captured_.size() < capture_limit_ &&
      decide_calls_ % static_cast<std::size_t>(capture_every_) == 0) {
    eva::SchedulingContext copy;
    copy.now_s = context.now_s;
    copy.catalog = context.catalog;
    copy.tasks = context.tasks;
    copy.instances = context.instances;
    captured_.push_back(std::move(copy));
  }
  ++decide_calls_;
  decide_tasks_ += context.tasks.size();
}

eva::ClusterConfig TimedScheduler::Schedule(const eva::SchedulingContext& context) {
  if (spans_ != nullptr) {
    NoteDecision(context);
  }
  ScopedSpan span(spans_, "decide");
  return inner_->Schedule(context);
}

void TimedScheduler::ScheduleInto(const eva::SchedulingContext& context,
                                  eva::ClusterConfig& out) {
  if (spans_ != nullptr) {
    NoteDecision(context);
  }
  ScopedSpan span(spans_, "decide");
  inner_->ScheduleInto(context, out);
}

void TimedScheduler::ObserveThroughput(
    const std::vector<eva::JobThroughputObservation>& observations) {
  ScopedSpan span(spans_, "observe");
  inner_->ObserveThroughput(observations);
}

int TimedScheduler::CoalesceQuiescentRounds(int max_rounds, eva::SimTime period_s) {
  ScopedSpan span(spans_, "coalesce");
  return inner_->CoalesceQuiescentRounds(max_rounds, period_s);
}

ColdDecisionCosts ReplayDecisionPath(std::vector<eva::SchedulingContext>& contexts,
                                     const eva::ThroughputEstimator* estimator,
                                     const eva::InstanceCatalog& catalog) {
  ColdDecisionCosts costs;
  const eva::TnrpCalculator::Options tnrp_options;  // Eva's defaults.
  const eva::PackingOptions packing;                // Serial: no pool.
  eva::ClusterConfig full;
  eva::ClusterConfig partial;
  eva::ConfigDiff diff;
  std::vector<const eva::TaskInfo*> partners;
  for (eva::SchedulingContext& context : contexts) {
    context.catalog = &catalog;
    context.Finalize();

    // Pricing: RP and TNRP of every task against its current neighbours.
    auto start = Clock::now();
    {
      eva::TnrpCalculator calculator(context, tnrp_options, estimator);
      for (const eva::InstanceInfo& instance : context.instances) {
        const eva::InstanceFamily family = catalog.Get(instance.type_index).family;
        for (const eva::TaskId id : instance.tasks) {
          const eva::TaskInfo* task = context.FindTask(id);
          if (task == nullptr) {
            continue;
          }
          partners.clear();
          for (const eva::TaskId other : instance.tasks) {
            const eva::TaskInfo* neighbour = context.FindTask(other);
            if (other != id && neighbour != nullptr) {
              partners.push_back(neighbour);
            }
          }
          calculator.ReservationPrice(*task);
          calculator.TaskTnrp(*task, partners, family);
        }
      }
      for (const eva::TaskInfo& task : context.tasks) {
        if (task.current_instance == eva::kInvalidInstanceId) {
          calculator.ReservationPrice(task);
        }
      }
    }
    costs.tnrp_us += SecondsSince(start) * 1e6;

    start = Clock::now();
    {
      eva::TnrpCalculator calculator(context, tnrp_options, estimator);
      eva::FullReconfigurationInto(context, calculator, packing, full);
    }
    costs.full_us += SecondsSince(start) * 1e6;

    start = Clock::now();
    {
      eva::TnrpCalculator calculator(context, tnrp_options, estimator);
      eva::PartialReconfigurationInto(context, calculator, packing, partial);
    }
    costs.partial_us += SecondsSince(start) * 1e6;

    start = Clock::now();
    eva::DiffConfigInto(context, full, diff);
    costs.diff_us += SecondsSince(start) * 1e6;
    ++costs.contexts;
  }
  if (costs.contexts > 0) {
    const double n = static_cast<double>(costs.contexts);
    costs.tnrp_us /= n;
    costs.full_us /= n;
    costs.partial_us /= n;
    costs.diff_us /= n;
  }
  return costs;
}

}  // namespace perfbench
