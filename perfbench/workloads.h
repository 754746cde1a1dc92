// The benchmark's three workloads: how their inputs follow from the
// workload seed, and one replay of each through the program's public API.
//
//   alibaba10k-open   the 2,000-job Alibaba-like trace ScaleTrace'd to
//                     10,000 jobs, Eva on one simulator, no provider
//                     (unlimited on-demand supply). Engine-bound.
//   alibaba2k-capped  the 2,000-job trace, Eva on one simulator with its own
//                     provider capped at family_capacity {4, 10, 6},
//                     on-demand only. Decision-bound (launch denials).
//   fed100-spot       100 ScaleTrace shards of 40 jobs under RunFederation:
//                     shared provider, unlimited pools, spot tier on,
//                     staggered rounds. Federation-bound.
//
// Every option a workload does not name keeps the production default
// (EvaOptions::max_parallelism, FederationOptions::num_threads, ...), so a
// change of default shows up here.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "src/cloud/instance_type.h"
#include "src/core/eva_scheduler.h"
#include "src/sim/experiment.h"
#include "src/sim/federation.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/interference.h"
#include "src/workload/job.h"

namespace perfbench {

enum class Workload { kOpen10k, kCapped2k, kFed100 };

// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Workload seeds. The generators always run with the seeds the
// repository's bench drivers use (Alibaba base trace 17, ScaleTrace 23,
// shard seed base 101, spot market 4242); kDefaultSeed reproduces those
// inputs exactly. For alibaba10k-open and fed100-spot any other seed
// re-draws the Table 7 workload model — which sets a job's interference and
// migration behaviour, not its demand, duration or arrival — of a seeded
// kRedrawFraction sample of the base trace's jobs, before scaling or
// sharding: a different trajectory with the same load shape. Seeding the
// generators instead moves the simulated outcome far more than any bound
// can hold: over ten Alibaba seeds, fed100-spot's cost had an interquartile
// range of 28% of its median; over five ScaleTrace/shard seeds, 11%.
// alibaba2k-capped ignores the seed. Its capped market is chaotic: fresh
// Alibaba draws moved it between 737 and 8,434 jobs/s (a launch-denial
// storm, or none), so per-seed inputs would measure the storm's size rather
// than the program's speed.
constexpr std::uint64_t kDefaultSeed = 17;
constexpr std::uint64_t kHeldOutSeed = 77;
constexpr double kRedrawFraction = 0.02;

// What one replay of a single-simulator workload measured.
struct SingleReplay {
  eva::SimulationMetrics metrics;
  eva::EvaScheduler::Stats eva_stats;
  double trace_gen_s = 0.0;   // Trace generation (and scaling), wall.
  double replay_s = 0.0;      // First event after Start() through Finish(), wall.
  double replay_cpu_s = 0.0;  // The same interval in process CPU time.
  std::vector<double> round_ms;  // Wall time of each ProcessEventsThrough, ms.

  // Traced replays only.
  SpanRecorder spans;
  std::size_t decide_calls = 0;
  std::size_t decide_tasks = 0;
  ColdDecisionCosts cold;
};

// Decision contexts the cold decision-path replay samples per run.
constexpr std::size_t kCaptureLimit = 32;

// Traced replays time every layer boundary into `spans` and, when
// `capture_every` > 0, replay every capture_every-th decision context (up to
// kCaptureLimit) cold after the run.
struct ReplayOptions {
  bool traced = false;
  int capture_every = 0;
};

// The inputs of one single-simulator replay, built in place: the trace,
// the interference model and catalog, Eva with its production options, and
// the simulator options. The scheduler keeps a reference to
// `interference`, so the object does not move.
struct SingleInputs {
  SingleInputs(Workload workload, std::uint64_t seed);
  SingleInputs(const SingleInputs&) = delete;
  SingleInputs& operator=(const SingleInputs&) = delete;

  double trace_gen_s = 0.0;  // Wall time of generating `trace`.
  eva::Trace trace;
  eva::InterferenceModel interference;
  eva::InstanceCatalog catalog;
  eva::SchedulerBundle bundle;
  eva::SimulatorOptions options;
};

// Stepped replay: Start / AdvanceUntil(NextRoundTime()) /
// ProcessEventsThrough / Finish, with the scheduler wrapped in
// TimedScheduler.
void ReplaySingle(Workload workload, std::uint64_t seed, const ReplayOptions& options,
                  SingleReplay* out);

// Set-up alone (trace generation, scheduler and simulator construction,
// Start), in wall seconds; the simulator is discarded unrun.
double SetupSingle(Workload workload, std::uint64_t seed);

// The correctness reference: the same inputs through plain RunSimulation.
eva::SimulationMetrics ReferenceSingle(Workload workload, std::uint64_t seed);

// Empty when the two runs agree bit-exactly on cost, JCT, events, rounds
// and jobs completed; otherwise a description of the first mismatch.
std::string CompareSingle(const eva::SimulationMetrics& reference,
                          const eva::SimulationMetrics& replay);

struct FedReplay {
  eva::FederationResult result;
  double trace_gen_s = 0.0;   // Base trace + MakeTenantShards, wall.
  double replay_s = 0.0;      // The whole RunFederation call, wall.
  double replay_cpu_s = 0.0;  // The same in process CPU time.
};

// `num_threads` <= 0 keeps the production default (hardware threads).
void ReplayFed(std::uint64_t seed, int num_threads, FedReplay* out);

// Base trace and shard generation alone, in wall seconds.
double ShardSetupFed(std::uint64_t seed);

// Pool-size bit-identity: empty when every tenant's metrics and the
// provider tallies agree exactly.
std::string CompareFed(const eva::FederationResult& reference,
                       const eva::FederationResult& replay);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
