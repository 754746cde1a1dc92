// Deterministic structured tracing for the simulator.
//
// TraceRecorder keeps one lock-free ring buffer per *track* — a logical
// event stream such as one tenant's simulator, the federation driver, or a
// bench harness. Tracks, not OS threads, are the unit of concurrency here
// on purpose: every Simulator processes its events serially (comparison
// runs parallelise *across* simulators, never within one), so a per-track
// ring needs no synchronisation on the emit path and, more importantly, its
// span sequence is identical no matter how many pool threads the run used.
// A per-OS-thread recorder would be lock-free too, but its interleaving
// would depend on the pool schedule and the export could never be
// bit-deterministic.
//
// Spans are stamped in *virtual* time (SimTime seconds). Wall-clock values
// are deliberately unrepresentable: a trace recorded twice from the same
// seed — at any pool size — serialises to byte-identical JSON, so traces
// can be diffed like goldens. Export is Chrome trace_event JSON
// (chrome://tracing / Perfetto): each track becomes a named "thread".
//
// Emit-path cost when tracing is off is a null-pointer test in the caller;
// the recorder itself is only ever touched when the user installed one via
// ObservabilityOptions.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace eva {

class TraceRecorder {
 public:
  struct Options {
    // Per-track ring capacity. When a track overflows, the oldest spans are
    // dropped — deterministically, since drops depend only on the span
    // sequence, never on timing.
    std::size_t max_spans_per_track = 1 << 16;
  };

  TraceRecorder() = default;
  explicit TraceRecorder(Options options) : options_(options) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Registers a named track and returns its id. Serialised by a mutex so
  // setup code (e.g. the federation driver constructing tenants) may call
  // it freely; emit calls for an existing track never take the lock.
  std::uint32_t RegisterTrack(const std::string& name);

  // Instant event ("i" phase) at virtual time now_s. `name` and the arg
  // names must be string literals (or otherwise outlive the recorder):
  // spans intern the pointer, not the bytes.
  void Instant(std::uint32_t track, const char* name, double now_s) {
    Push(track, kInstant, now_s, now_s, name, nullptr, 0.0, nullptr, 0.0);
  }
  void Instant(std::uint32_t track, const char* name, double now_s,
               const char* arg0_name, double arg0) {
    Push(track, kInstant, now_s, now_s, name, arg0_name, arg0, nullptr, 0.0);
  }
  void Instant(std::uint32_t track, const char* name, double now_s,
               const char* arg0_name, double arg0, const char* arg1_name,
               double arg1) {
    Push(track, kInstant, now_s, now_s, name, arg0_name, arg0, arg1_name,
         arg1);
  }

  // Complete span ("X" phase) covering virtual [start_s, end_s].
  void Complete(std::uint32_t track, const char* name, double start_s,
                double end_s) {
    Push(track, kComplete, start_s, end_s, name, nullptr, 0.0, nullptr, 0.0);
  }
  void Complete(std::uint32_t track, const char* name, double start_s,
                double end_s, const char* arg0_name, double arg0) {
    Push(track, kComplete, start_s, end_s, name, arg0_name, arg0, nullptr,
         0.0);
  }
  void Complete(std::uint32_t track, const char* name, double start_s,
                double end_s, const char* arg0_name, double arg0,
                const char* arg1_name, double arg1) {
    Push(track, kComplete, start_s, end_s, name, arg0_name, arg0, arg1_name,
         arg1);
  }

  // Counter sample ("C" phase): renders as a track-local graph in the
  // trace viewer.
  void Counter(std::uint32_t track, const char* name, double now_s,
               double value) {
    Push(track, kCounter, now_s, now_s, name, "value", value, nullptr, 0.0);
  }

  std::size_t num_tracks() const;
  // Total spans emitted (including ones since dropped by ring wrap).
  std::uint64_t TotalEmitted() const;
  // Spans currently retained across all tracks.
  std::uint64_t TotalRetained() const;

  // Exact virtual start times of the retained spans named `name` on
  // `track`, in emit order. The Chrome export rounds timestamps to
  // nanoseconds; engine invariants over event times need the exact values.
  std::vector<double> SpanTimes(std::uint32_t track, const std::string& name) const;

  // Serialises all retained spans as Chrome trace_event JSON, merge-sorted
  // by (timestamp, track, per-track sequence) so the bytes are independent
  // of emit interleaving across tracks. Deterministic number formatting
  // throughout: same spans ⇒ same bytes.
  std::string ToChromeJson() const;

  // ToChromeJson straight to a file. Returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  enum Phase : std::uint8_t { kInstant, kComplete, kCounter };

  struct Span {
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t seq = 0;  // per-track emit index, for stable sort keys
    const char* name = nullptr;
    const char* arg0_name = nullptr;
    const char* arg1_name = nullptr;
    double arg0 = 0.0;
    double arg1 = 0.0;
    Phase phase = kInstant;
  };

  struct Track {
    std::string name;
    std::vector<Span> ring;   // grows to capacity, then wraps by seq % cap
    std::uint64_t emitted = 0;
  };

  void Push(std::uint32_t track, Phase phase, double start_s, double end_s,
            const char* name, const char* arg0_name, double arg0,
            const char* arg1_name, double arg1);

  Options options_;
  // deque: Track addresses stay stable across RegisterTrack, so concurrent
  // emits on existing tracks are safe while a new track registers.
  std::deque<Track> tracks_;
  mutable std::mutex register_mutex_;
};

// A (recorder, track) pair handed to subsystems that emit on someone
// else's track — e.g. the scheduler emits pack spans onto its simulator's
// track. Null recorder ⇒ tracing off; test with operator bool.
struct TraceBinding {
  TraceRecorder* recorder = nullptr;
  std::uint32_t track = 0;

  explicit operator bool() const { return recorder != nullptr; }
};

}  // namespace eva

#endif  // SRC_OBS_TRACE_H_
