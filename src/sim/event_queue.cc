#include "src/sim/event_queue.h"

#include <algorithm>
#include <iterator>

namespace eva {

namespace {

constexpr std::size_t kArity = 4;

struct EventTypeNames {
  const char* name;
  const char* span;
};

// Indexed by SimEventType.
constexpr EventTypeNames kEventTypeNames[] = {
    {"arrival", "ev.arrival"},
    {"round", "ev.round"},
    {"instance_ready", "ev.instance_ready"},
    {"checkpoint_done", "ev.checkpoint_done"},
    {"launch_done", "ev.launch_done"},
    {"completion_check", "ev.completion_check"},
    {"spot_check", "ev.spot_check"},
    {"spot_preempt", "ev.spot_preempt"},
    {"fault_check", "ev.fault_check"},
    {"zone_outage", "ev.zone_outage"},
    {"drain_start", "ev.drain_start"},
    {"drain_deadline", "ev.drain_deadline"},
};
static_assert(std::size(kEventTypeNames) == static_cast<std::size_t>(kNumSimEventTypes),
              "one name pair per SimEventType");

}  // namespace

const char* SimEventTypeName(SimEventType type) {
  return kEventTypeNames[static_cast<std::size_t>(type)].name;
}

const char* SimEventSpanName(SimEventType type) {
  return kEventTypeNames[static_cast<std::size_t>(type)].span;
}

void EventQueue::SiftUp(std::size_t index) {
  SimEvent moving = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!Before(moving, heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = moving;
}

void EventQueue::SiftDown(std::size_t index) {
  const std::size_t size = heap_.size();
  SimEvent moving = heap_[index];
  while (true) {
    const std::size_t first_child = index * kArity + 1;
    if (first_child >= size) {
      break;
    }
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kArity, size);
    for (std::size_t child = first_child + 1; child < last_child; ++child) {
      if (Before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = moving;
}

void EventQueue::HeapPush(const SimEvent& event) {
  heap_.push_back(event);
  SiftUp(heap_.size() - 1);
}

void EventQueue::Push(SimTime time, SimEventType type, std::int64_t a, int version) {
  const SimEvent event{time, next_seq_++, type, a, version};
  if (!has_front_) {
    front_ = event;
    has_front_ = true;
    return;
  }
  if (Before(event, front_)) {
    HeapPush(front_);
    front_ = event;
  } else {
    HeapPush(event);
  }
}

const SimEvent& EventQueue::Top() const {
  if (has_front_ && (heap_.empty() || !Before(heap_.front(), front_))) {
    return front_;
  }
  return heap_.front();
}

SimEvent EventQueue::Pop() {
  // Cross-lane minimum via the exact comparator; ties cannot occur
  // (sequence numbers are unique).
  if (has_front_ && (heap_.empty() || !Before(heap_.front(), front_))) {
    has_front_ = false;
    return front_;
  }
  SimEvent event = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
  return event;
}

}  // namespace eva
