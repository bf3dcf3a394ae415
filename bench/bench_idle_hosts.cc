// E7 — idle-host availability over a week (thesis §8.2, figure).
//
// Paper: 65–70% of Sprite hosts idle on average during the day, up to ~80%
// at night and on weekends; long-idle hosts tend to stay idle [ML87].
#include <cstdio>

#include <map>

#include "bench_util.h"
#include "util/stats.h"
#include "workload/activity.h"

using sprite::wl::UserActivityModel;
using sprite::core::SpriteCluster;
using sprite::sim::Time;
using sprite::util::Table;

int main() {
  bench::header("E7: idle hosts over a simulated week (bench_idle_hosts)",
                "65-70% idle during the day, ~80% at night/weekends");

  const int kHosts = 40;
  SpriteCluster cluster({.workstations = kHosts,
                         .seed = 31,
                         .horizon = Time::hours(24 * 7 + 1)});
  UserActivityModel activity(cluster.kernel(),
                             UserActivityModel::Profile::office());
  activity.start();

  // Sample the idle fraction every 15 simulated minutes for 7 days, and
  // track per-host idle-period durations for the persistence analysis.
  sprite::util::Accumulator weekday_day, weekday_night, weekend_all;
  std::array<sprite::util::Accumulator, 24> by_hour;
  std::map<sprite::sim::HostId, double> idle_since;  // hours; <0 = busy
  std::vector<double> idle_periods_h;                // completed periods
  for (auto w : cluster.kernel().workstations()) idle_since[w] = -1;

  for (double h = 1.0; h < 24.0 * 7; h += 0.25) {
    cluster.run_for(Time::minutes(15));
    const double idle =
        static_cast<double>(cluster.load_sharing().idle_count()) / kHosts;
    const int hour = static_cast<int>(h) % 24;
    const int day = static_cast<int>(h) / 24;
    by_hour[static_cast<std::size_t>(hour)].add(idle);
    if (day >= 5) {
      weekend_all.add(idle);
    } else if (hour >= 9 && hour < 18) {
      weekday_day.add(idle);
    } else {
      weekday_night.add(idle);
    }
    for (auto w : cluster.kernel().workstations()) {
      const bool is_idle = cluster.load_sharing().actually_idle(w);
      double& since = idle_since[w];
      if (is_idle && since < 0) {
        since = h;
      } else if (!is_idle && since >= 0) {
        idle_periods_h.push_back(h - since);
        since = -1;
      }
    }
  }

  Table t({"period", "paper", "measured idle fraction"});
  t.add_row({"weekday 9:00-18:00", "65-70%",
             Table::num(100 * weekday_day.mean(), 0) + "%"});
  t.add_row({"weekday nights", "~80%",
             Table::num(100 * weekday_night.mean(), 0) + "%"});
  t.add_row({"weekend", "~80%",
             Table::num(100 * weekend_all.mean(), 0) + "%"});
  t.print();

  std::printf("\nidle fraction by hour of day (weekly average):\n");
  Table hours({"hour", "idle %"});
  for (int h = 0; h < 24; h += 2) {
    hours.add_row({std::to_string(h) + ":00",
                   Table::num(100 * by_hour[static_cast<std::size_t>(h)].mean(),
                              0)});
  }
  hours.print();

  // Mutka & Livny's persistence claim [ML87], which the thesis's §8.5
  // measurements support: hosts idle for a long time tend to stay idle.
  std::printf("\nidle-period persistence (Mutka & Livny):\n");
  Table pt({"already idle for", "mean remaining idle time (h)", "periods"});
  for (double threshold_h : {0.0, 0.25, 1.0, 4.0}) {
    sprite::util::Accumulator remaining;
    for (double p : idle_periods_h) {
      if (p >= threshold_h) remaining.add(p - threshold_h);
    }
    char label[32];
    std::snprintf(label, sizeof label, ">= %.2f h", threshold_h);
    pt.add_row({label, Table::num(remaining.mean(), 2),
                std::to_string(remaining.count())});
  }
  pt.print();

  bench::footnote(
      "Shape checks: a diurnal availability curve — a daytime trough in the\n"
      "60-70% band and nights/weekends near 80% — matching the thesis's\n"
      "month of production measurements; and the expected remaining idle\n"
      "time GROWS with elapsed idle time (short office absences mix with\n"
      "long nights), confirming Mutka & Livny's heuristic that long-idle\n"
      "hosts are the best migration targets.");
  return 0;
}
