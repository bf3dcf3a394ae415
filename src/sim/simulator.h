// The Simulator: simulated clock + event loop + root RNG + trace registry.
//
// All kernel mechanisms in this repository are event-driven objects hanging
// off one Simulator. A run is deterministic given the seed.
//
// Scheduling puts the caller's lambda straight into an EventQueue slot,
// together with the event's type id (its label, interned by the profiler)
// and the ambient trace context. Firing runs the lambda in place under that
// context and counts it in the profiler's per-type row. A recurring event
// (every) keeps its slot: after the handler returns it is queued again under
// a fresh sequence number, exactly as if it had been scheduled anew then.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "sim/event_queue.h"
#include "sim/profiler.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "util/assert.h"
#include "util/rng.h"

namespace sprite::sim {

class Simulator {
 public:
  // Label for events scheduled without one; the self-profiler buckets them
  // together.
  static constexpr const char* kDefaultLabel = "other";

  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now). `label` is a
  // static string literal naming the event type for the self-profiler and
  // the `sim.engine.fired.<label>` counters (lowercase [a-z0-9_]); the
  // unlabeled overloads fall into kDefaultLabel. `fn` may be move-only.
  template <std::invocable F>
  EventHandle at(Time t, const char* label, F&& fn) {
    SPRITE_CHECK_MSG(t >= now_, "scheduling into the past");
    return schedule(t, label, Time::zero(), Time::zero(), std::forward<F>(fn));
  }
  template <std::invocable F>
  EventHandle at(Time t, F&& fn) {
    return at(t, kDefaultLabel, std::forward<F>(fn));
  }

  // Schedules `fn` after a delay (>= 0).
  template <std::invocable F>
  EventHandle after(Time delay, const char* label, F&& fn) {
    SPRITE_CHECK_MSG(delay >= Time::zero(), "negative delay");
    return at(now_ + delay, label, std::forward<F>(fn));
  }
  template <std::invocable F>
  EventHandle after(Time delay, F&& fn) {
    return after(delay, kDefaultLabel, std::forward<F>(fn));
  }

  // Recurring background activity (load sampling, cache writeback, user
  // activity). Re-arms itself after each firing until `until` (defaults to
  // the simulator horizon at each re-arm, so extending the horizon extends
  // recurring activity).
  template <std::invocable F>
  void every(Time period, const char* label, F&& fn,
             Time until = Time::max()) {
    SPRITE_CHECK_MSG(period > Time::zero(), "non-positive period");
    const Time next = now_ + period;
    if (next > until || next > horizon_) return;
    schedule(next, label, period, until, std::forward<F>(fn));
  }
  template <std::invocable F>
  void every(Time period, F&& fn, Time until = Time::max()) {
    every(period, kDefaultLabel, std::forward<F>(fn), until);
  }

  // The horizon bounds recurring events so the event queue drains once real
  // work completes. Experiments set it once, generously.
  void set_horizon(Time t) { horizon_ = t; }
  Time horizon() const { return horizon_; }

  // Fires the next event if any; returns false when the queue is empty.
  bool step();

  // Runs every event scheduled at or before `t`, then advances the clock
  // to `t` even if the queue drained earlier.
  void run_until(Time t);

  // Runs until `done` returns true or the queue empties. Returns the value
  // of `done()` at exit (false means the simulation starved first).
  bool run_while_pending(const std::function<bool()>& done);

  // Drains the queue completely (recurring events stop at the horizon).
  void run();

  // Independent RNG stream for a component.
  util::Rng fork_rng() { return rng_.fork(); }
  util::Rng& rng() { return rng_; }

  // Unified metrics + tracing registry for everything attached to this
  // simulator. Metrics are always collected; event tracing is off until
  // trace().set_tracing(true).
  trace::Registry& trace() { return *trace_; }
  const trace::Registry& trace() const { return *trace_; }

  // Engine self-profiler. Per-label fired counts are always collected (and
  // mirrored as deterministic `sim.engine.fired.<label>` counters); call
  // profiler().set_timing(true) before a run to also attribute wall-clock
  // per event type. The top-N table rides along in every flight dump.
  EngineProfiler& profiler() { return profiler_; }
  const EngineProfiler& profiler() const { return profiler_; }

 private:
  template <class F>
  EventHandle schedule(Time t, const char* label, Time period, Time until,
                       F&& fn) {
    auto [handle, ev] = queue_.schedule(t, std::forward<F>(fn));
    ev->type = profiler_.type_of(label);
    // Causal context follows the work: an event scheduled while a traced
    // operation is ambient runs under that same context, so continuation
    // chains (RPC handling, network delivery, timer callbacks) inherit
    // their trace without any per-subsystem plumbing.
    ev->ctx = trace_->current();
    ev->period = period;
    ev->until = until;
    note_queue_size();
    return handle;
  }

  // Runs a popped event's handler in place; returns true when a recurring
  // event was queued again (its slot stays in use).
  bool fire(std::uint32_t slot, EventQueue::Event& ev);

  void note_queue_size() {
    if (queue_.size() > queue_peak_) {
      queue_peak_ = queue_.size();
      g_queue_peak_->set(static_cast<double>(queue_peak_));
    }
  }

  Time now_;
  Time horizon_ = Time::hours(24);
  EventQueue queue_;
  util::Rng rng_;
  std::unique_ptr<trace::Registry> trace_;
  EngineProfiler profiler_;
  trace::Counter* c_event_fired_;
  trace::Gauge* g_queue_peak_;
  std::size_t queue_peak_ = 0;
};

}  // namespace sprite::sim
