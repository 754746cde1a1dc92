// Engine invariants checked along the whole trajectory of a real replay, not
// only at its end state: the 2,000-job Alibaba-like trace under Eva, with
// every engine event traced.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

Trace Alibaba2000() {
  AlibabaTraceOptions options;
  options.num_jobs = 2000;
  options.seed = 17;
  options.max_duration_hours = 48.0;
  return GenerateAlibabaTrace(options);
}

SimulationMetrics RunObserved(const Trace& trace, TraceRecorder* recorder,
                              TelemetryRegistry* registry) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  SimulatorOptions options;
  options.observability.enabled = true;
  options.observability.trace = recorder;
  options.observability.registry = registry;
  options.observability.trace_engine_events = true;
  return RunSimulation(trace, bundle.scheduler.get(), catalog, interference, options);
}

// At most one completion check is armed per projection, so no two checks
// ever pop at the same virtual time. A superseded check that re-armed the
// live projection would queue a second copy of it, and each copy would
// re-arm the next projection in turn — the duplicates show up here as
// checks sharing their predecessor's timestamp.
TEST(SimulatorEngineInvariantTest, NoTwoCompletionChecksShareAVirtualTime) {
  TraceRecorder::Options trace_options;
  trace_options.max_spans_per_track = std::size_t{1} << 20;
  TraceRecorder recorder(trace_options);
  const SimulationMetrics metrics = RunObserved(Alibaba2000(), &recorder, nullptr);
  ASSERT_EQ(metrics.jobs_completed, metrics.jobs_submitted);
  ASSERT_EQ(recorder.TotalRetained(), recorder.TotalEmitted());  // Whole run.

  // Checks pop in virtual-time order; compare each with the previous one.
  const std::vector<double> checks = recorder.SpanTimes(0, "ev.completion_check");
  std::int64_t same_time = 0;
  for (std::size_t i = 1; i < checks.size(); ++i) {
    same_time += checks[i] == checks[i - 1] ? 1 : 0;
  }
  ASSERT_FALSE(checks.empty());
  EXPECT_EQ(same_time, 0) << "of " << checks.size() << " completion checks";
}

// The registry carries one processed-event counter per SimEventType plus
// the completion checks that did no work, and they account for every event.
TEST(SimulatorEngineInvariantTest, EventCountsArePublishedPerType) {
  const Trace trace = Alibaba2000();
  TelemetryRegistry registry;
  const SimulationMetrics metrics = RunObserved(trace, nullptr, &registry);

  const std::string exported = registry.ToJson();
  std::int64_t by_type = 0;
  for (int type = 0; type < kNumSimEventTypes; ++type) {
    const std::string counter =
        std::string("sim.events.") + SimEventTypeName(static_cast<SimEventType>(type));
    ASSERT_NE(exported.find('"' + counter + '"'), std::string::npos) << counter;
    by_type += registry.CounterValue(counter);
  }
  EXPECT_EQ(by_type, metrics.events_processed);
  EXPECT_EQ(registry.CounterValue("sim.events_processed"), metrics.events_processed);
  EXPECT_EQ(registry.CounterValue("sim.events.arrival"),
            static_cast<std::int64_t>(trace.jobs.size()));
  EXPECT_EQ(registry.CounterValue("sim.events.round"), metrics.scheduling_rounds);

  // No-op events are completion checks, and every check that did work
  // completed at least one job. Without the one-armed-check invariant the
  // no-ops outnumber completed jobs more than a hundredfold.
  const std::int64_t checks = registry.CounterValue("sim.events.completion_check");
  const std::int64_t noop = registry.CounterValue("sim.events_noop");
  EXPECT_EQ(noop, metrics.events_noop);
  EXPECT_GT(noop, 0);
  EXPECT_LE(checks - noop, metrics.jobs_completed);
  EXPECT_LT(noop, metrics.jobs_completed);
}

}  // namespace
}  // namespace eva
