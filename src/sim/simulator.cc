#include "sim/simulator.h"

#include <chrono>

#include "util/assert.h"
#include "util/log.h"

namespace sprite::sim {

Simulator::Simulator(std::uint64_t seed)
    : rng_(seed),
      trace_(std::make_unique<trace::Registry>([this] { return now_.us(); })),
      profiler_(*trace_) {
  util::set_log_time_source([this] { return now_.us(); });
  c_event_fired_ = &trace_->counter("sim.engine.event.fired");
  g_queue_peak_ = &trace_->gauge("sim.engine.queue.peak");
  // A starved or CHECK-failed run dumps the flight recorder; append what the
  // engine itself was doing (top-N hottest event types).
  trace_->set_dump_hook([this] { return profiler_.report(8); });
}

Simulator::~Simulator() { util::set_log_time_source(nullptr); }

bool Simulator::fire(std::uint32_t slot, EventQueue::Event& ev) {
  // An invalid context leaves the ambient one in place.
  trace::ScopedContext scope(*trace_, ev.ctx);
  ev.fn();
  if (ev.period == Time::zero()) return false;
  // Re-armed as a fresh schedule from the end of the handler would be:
  // a new seq, under the context ambient now.
  const Time next = now_ + ev.period;
  if (next > ev.until || next > horizon_) return false;
  ev.ctx = trace_->current();
  queue_.arm(slot, next);
  note_queue_size();
  return true;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const auto [at, slot] = queue_.pop();
  SPRITE_CHECK_MSG(at >= now_, "event queue time went backwards");
  now_ = at;
  EventQueue::Event& ev = queue_.event(slot);
  const std::uint32_t type = ev.type;
  bool rearmed = false;
  if (profiler_.timing()) {
    const auto t0 = std::chrono::steady_clock::now();
    rearmed = fire(slot, ev);
    const auto t1 = std::chrono::steady_clock::now();
    profiler_.record(
        type,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
  } else {
    rearmed = fire(slot, ev);
    profiler_.record(type, -1.0);
  }
  c_event_fired_->inc();
  if (!rearmed) queue_.release(slot);
  return true;
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  if (now_ < t) now_ = t;
}

bool Simulator::run_while_pending(const std::function<bool()>& done) {
  while (!done()) {
    if (!step()) return false;
  }
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace sprite::sim
