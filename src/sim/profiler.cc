#include "sim/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sprite::sim {

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint32_t EngineProfiler::add_label(const char* label) {
  // Duplicate string literals in different translation units may not share
  // an address: a new pointer with a known spelling joins that type.
  std::uint32_t type = 0;
  while (type < types_.size() && std::strcmp(types_[type].stats.label, label))
    ++type;
  if (type == types_.size()) {
    types_.emplace_back();
    types_.back().stats.label = label;
  }
  if (2 * (pointers_ + 1) > probe_.size()) {
    const std::vector<Probe> old =
        std::exchange(probe_, std::vector<Probe>(2 * probe_.size()));
    --probe_shift_;
    for (const Probe& p : old)
      if (p.label != nullptr) insert_probe(p);
  }
  insert_probe({label, type});
  ++pointers_;
  return type;
}

void EngineProfiler::insert_probe(Probe p) {
  std::size_t i = probe_index(p.label);
  while (probe_[i].label != nullptr) i = (i + 1) & (probe_.size() - 1);
  probe_[i] = p;
}

trace::Counter& EngineProfiler::fired_counter(const char* label) {
  return reg_.counter(std::string("sim.engine.fired.") + label);
}

void EngineProfiler::record_time(LabelStats& s, double ns) {
  s.total_ns += ns;
  total_ns_ += ns;
  std::size_t b = 0;
  while (b < kCostBoundsNs.size() && ns >= kCostBoundsNs[b]) ++b;
  ++s.cost_buckets[b];
}

void EngineProfiler::begin_run() {
  run_start_ns_ = now_ns();
  running_ = true;
}

void EngineProfiler::end_run() {
  if (!running_) return;
  run_ns_ += now_ns() - run_start_ns_;
  running_ = false;
}

double EngineProfiler::wall_s() const {
  double ns = run_ns_;
  if (running_) ns += now_ns() - run_start_ns_;
  return ns / 1e9;
}

double EngineProfiler::events_per_sec() const {
  const double s = wall_s();
  return s > 0.0 ? static_cast<double>(events_) / s : 0.0;
}

std::vector<EngineProfiler::LabelStats> EngineProfiler::top(
    std::size_t n) const {
  std::vector<LabelStats> out;
  for (const Type& t : types_)
    if (t.stats.fired > 0) out.push_back(t.stats);
  std::sort(out.begin(), out.end(),
            [this](const LabelStats& a, const LabelStats& b) {
              if (timing_ && a.total_ns != b.total_ns)
                return a.total_ns > b.total_ns;
              if (a.fired != b.fired) return a.fired > b.fired;
              return std::strcmp(a.label, b.label) < 0;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

double EngineProfiler::percentile_ns(const LabelStats& s, double q) {
  std::int64_t total = 0;
  for (std::int64_t c : s.cost_buckets) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t b = 0; b < s.cost_buckets.size(); ++b) {
    const double next = cum + static_cast<double>(s.cost_buckets[b]);
    if (next >= target && s.cost_buckets[b] > 0) {
      const double lo = b == 0 ? 0.0 : kCostBoundsNs[b - 1];
      if (b == kCostBoundsNs.size()) return lo;  // overflow: its floor
      const double hi = kCostBoundsNs[b];
      return lo + (hi - lo) * (target - cum) /
                      static_cast<double>(s.cost_buckets[b]);
    }
    cum = next;
  }
  return kCostBoundsNs.back();
}

std::string EngineProfiler::report(std::size_t n) const {
  std::string out = "--- engine self-profile ";
  char line[192];
  if (timing_) {
    std::snprintf(line, sizeof line, "(%lld events, %.0f events/sec wall) ---\n",
                  static_cast<long long>(events_), events_per_sec());
  } else {
    std::snprintf(line, sizeof line, "(%lld events, timing off) ---\n",
                  static_cast<long long>(events_));
  }
  out += line;
  for (const LabelStats& s : top(n)) {
    if (timing_) {
      std::snprintf(line, sizeof line,
                    "  %-20s fired=%-9lld total=%8.2fms p50=%6.0fns "
                    "p99=%8.0fns\n",
                    s.label, static_cast<long long>(s.fired),
                    s.total_ns / 1e6, percentile_ns(s, 0.50),
                    percentile_ns(s, 0.99));
    } else {
      std::snprintf(line, sizeof line, "  %-20s fired=%lld\n", s.label,
                    static_cast<long long>(s.fired));
    }
    out += line;
  }
  return out;
}

void EngineProfiler::reset() {
  for (Type& t : types_) t.stats = LabelStats{.label = t.stats.label};
  events_ = 0;
  total_ns_ = 0.0;
  run_ns_ = 0.0;
  running_ = false;
}

}  // namespace sprite::sim
