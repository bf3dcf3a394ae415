// checkpoint_demo: surviving the machine you borrowed.
//
// A long simulation runs on a borrowed workstation with the per-host
// autocheckpoint daemon enabled: a full base image first, then cheap
// incremental captures of just the pages dirtied since. Mid-run the
// borrowed machine crashes without warning. The home node's failure
// detector notices, consults its restart table, and revives the process
// from the latest committed image on a third machine — where it finishes
// correctly. Migration moves live processes; checkpointing is what lets
// them outlive their host.
//
//   ./example_checkpoint_demo [--trace-out checkpoint.trace.json]
#include <cstdio>
#include <string>

#include "ckpt/manager.h"
#include "core/sprite.h"
#include "proc/table.h"

using sprite::core::SpriteCluster;
using sprite::proc::ScriptBuilder;
using sprite::sim::Time;

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--trace-out") trace_path = argv[i + 1];

  SpriteCluster cluster({.workstations = 4, .seed = 9});
  sprite::trace::Registry& tr = cluster.sim().trace();
  if (!trace_path.empty()) {
    tr.set_tracing(true);
    for (std::size_t h = 0; h < cluster.kernel().num_hosts(); ++h) {
      auto id = static_cast<sprite::sim::HostId>(h);
      tr.set_host_name(id, cluster.kernel().host(id).name());
    }
  }
  cluster.warm_up();

  // The simulation: a big first phase dirties the working set, then long
  // compute stretches each touch a modest slice of it — ideal incremental
  // checkpoint behaviour.
  ScriptBuilder b;
  b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, 512, true});
  for (int phase = 0; phase < 10; ++phase)
    b.compute(Time::sec(20))
        .act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, 24, true});
  b.exit(0);
  cluster.install_program("/bin/sim", b.image(16, 512, 4));

  const auto home = cluster.workstation(0);
  const auto borrowed = cluster.workstation(1);
  const auto pid = cluster.spawn(home, "/bin/sim", {});
  cluster.run_for(Time::msec(100));
  auto st = cluster.migrate(pid, borrowed);
  std::printf("simulation %llu -> %s (%s)\n",
              static_cast<unsigned long long>(pid),
              cluster.host(borrowed).name().c_str(), st.to_string().c_str());

  // Autocheckpoint on the borrowed host: every 15 s, or sooner if 64 pages
  // have been dirtied since the last capture.
  auto& ck = cluster.host(borrowed).ckpt();
  ck.set_auto_policy(Time::sec(15), 64);
  ck.enable_autocheckpoint(true);
  std::printf("autocheckpoint armed on %s (15 s interval / 64-page dirty "
              "threshold)\n",
              cluster.host(borrowed).name().c_str());

  cluster.run_for(Time::sec(50));
  std::printf(
      "after 50 s: %lld captures (%lld full + %lld incremental), "
      "%lld pages written\n",
      static_cast<long long>(
          tr.counter_value("ckpt.capture.completed", borrowed)),
      static_cast<long long>(
          tr.counter_value("ckpt.capture.full_base", borrowed)),
      static_cast<long long>(
          tr.counter_value("ckpt.capture.incremental", borrowed)),
      static_cast<long long>(tr.counter_value("ckpt.page.captured", borrowed)));

  std::printf("\n*** %s loses power ***\n",
              cluster.host(borrowed).name().c_str());
  cluster.kernel().crash_host(borrowed);

  // The home's failure detector needs a few echo intervals to declare the
  // host down; then the restart table revives the process elsewhere.
  cluster.run_for(Time::sec(30));
  const auto now_on = cluster.locate(pid);
  std::printf("restarted on %s\n", cluster.host(now_on).name().c_str());
  const std::int64_t restarts = tr.counter_total("ckpt.restart.completed");
  std::printf("restarts: %lld, pages restored from image: %lld\n",
              static_cast<long long>(restarts),
              static_cast<long long>(tr.counter_total("ckpt.page.restored")));

  cluster.kernel().reboot_host(borrowed);
  const int status = cluster.wait(pid);
  std::printf("simulation finished with status %d (work since the last "
              "checkpoint was re-run; nothing was lost)\n",
              status);

  if (!trace_path.empty()) {
    const auto ws = tr.write_chrome_json(trace_path);
    if (ws.is_ok())
      std::printf("\ntrace: %zu events -> %s\n", tr.events().size(),
                  trace_path.c_str());
  }
  return status == 0 && restarts == 1 ? 0 : 1;
}
