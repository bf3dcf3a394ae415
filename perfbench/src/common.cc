#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory_resource>
#include <sstream>
#include <vector>

#include "bench.h"
#include "migration/manager.h"
#include "trace/trace.h"

namespace perfbench {

using sprite::sim::HostId;
using sprite::sim::JobClass;

double calibration_s() {
  // The table and the map's nodes live in one private mapping, touched
  // before the clock starts and unmapped after the pass, so the kernel
  // leaves nothing resident behind it.
  constexpr std::size_t kTableBytes = std::size_t{4} << 20;
  constexpr std::size_t kArenaBytes = std::size_t{4} << 20;
  constexpr std::size_t kBytes = kTableBytes + kArenaBytes;
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) std::abort();
  std::memset(mem, 0, kBytes);
  auto* table = static_cast<std::uint64_t*>(mem);
  constexpr std::size_t kWords = kTableBytes / sizeof(std::uint64_t);
  std::pmr::monotonic_buffer_resource arena(
      static_cast<char*>(mem) + kTableBytes, kArenaBytes,
      std::pmr::null_memory_resource());

  const double t0 = host_now_s();
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 1000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (kWords - 1)] += x;
  }
  std::size_t entries = 0;
  {
    std::pmr::map<std::uint64_t, std::uint64_t> m(&arena);
    for (int i = 0; i < 40000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      m[x % 50000] += x;
      if (m.size() > 20000) m.erase(m.begin());
    }
    entries = m.size();
  }
  const double elapsed = host_now_s() - t0;
  // Make the result depend on the work, so the compiler cannot drop it.
  volatile std::uint64_t sink = table[x & (kWords - 1)] + entries;
  (void)sink;
  munmap(mem, kBytes);
  return elapsed;
}

std::uint64_t SpanLog::begin(const std::string& name, std::uint64_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = name;
  s.start_s = host_now_s();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_s = host_now_s();
}

std::string SpanLog::json() const {
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::ostringstream o;
  o << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end = s.end_s < 0 ? s.start_s : s.end_s;
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  (s.start_s - t0) * 1e6, (end - s.start_s) * 1e6);
    o << (i ? ",\n" : "\n") << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
      << s.name << "\"," << buf << ",\"args\":{\"id\":" << s.id
      << ",\"parent\":" << s.parent << "}}";
  }
  o << "\n]}\n";
  return o.str();
}

namespace {

// Nearest-rank percentile of sorted, non-empty samples.
double sorted_percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, q);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) { return sorted_percentile(samples, q); };
  s.p50 = at(0.5);
  s.tail_q = 1.0;
  s.tail = samples.back();
  for (double q : {0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5}) {
    if (static_cast<double>(samples.size()) * (1.0 - q) >= 10.0) {
      s.tail_q = q;
      s.tail = at(q);
      break;
    }
  }
  return s;
}

std::string describe(const std::string& name, const Summary& s,
                     const std::string& unit) {
  char buf[200];
  if (s.tail_q >= 1.0)
    std::snprintf(buf, sizeof buf, "%s: p50 %.3f %s, tail = max %.3f %s (n=%zu)",
                  name.c_str(), s.p50, unit.c_str(), s.tail, unit.c_str(),
                  s.n);
  else
    std::snprintf(buf, sizeof buf, "%s: p50 %.3f %s, tail = p%g %.3f %s (n=%zu)",
                  name.c_str(), s.p50, unit.c_str(), s.tail_q * 100.0, s.tail,
                  unit.c_str(), s.n);
  return buf;
}

std::vector<std::int64_t> shuffled_spread(std::int64_t lo, std::int64_t hi,
                                          int n, sprite::util::Rng& rng) {
  std::vector<std::int64_t> v;
  for (int i = 0; i < n; ++i)
    v.push_back(n == 1 ? lo : lo + (hi - lo) * i / (n - 1));
  for (int i = n - 1; i > 0; --i)
    std::swap(v[static_cast<std::size_t>(i)],
              v[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  return v;
}

void SimData::merge(const SimData& o) {
  for (const auto& [k, v] : o.samples)
    samples[k].insert(samples[k].end(), v.begin(), v.end());
  for (const auto& [k, v] : o.counts) counts[k] += v;
  for (const auto& [k, r] : o.ratios) {
    ratios[k].num += r.num;
    ratios[k].den += r.den;
  }
  for (const auto& [k, v] : o.peaks) peaks[k] = std::max(peaks[k], v);
}

void SimData::add_histogram(const std::string& key,
                            const sprite::trace::Registry::HistSnapshot& h) {
  std::vector<double>& out = samples[key];
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const double v = b < h.bounds.size() ? h.bounds[b] : h.bounds.back();
    out.insert(out.end(), static_cast<std::size_t>(h.counts[b]), v);
  }
}

void collect_layers(sprite::kern::Cluster& cluster, SimData& out) {
  const sprite::trace::Registry& tr = cluster.sim().trace();
  auto count = [&](const std::string& metric, const char* counter) {
    out.counts[metric] += static_cast<double>(tr.counter_total(counter));
  };
  auto ratio = [&](const std::string& metric, double num, double den) {
    out.ratios[metric].num += num;
    out.ratios[metric].den += den;
  };
  auto c = [&](const char* name) {
    return static_cast<double>(tr.counter_total(name));
  };
  const double now_s = cluster.sim().now().s();

  // Every migration, exec-time or live, from the per-host records.
  double exec_time = 0, total = 0;
  for (std::size_t h = 0; h < cluster.num_hosts(); ++h) {
    for (const auto& r :
         cluster.host(static_cast<HostId>(h)).mig().records()) {
      out.samples["migrate_ms"].push_back(r.total_time().ms());
      out.samples["freeze_ms"].push_back(r.freeze_time().ms());
      exec_time += r.exec_time ? 1 : 0;
      total += 1;
    }
  }
  ratio("mig.exec_time_frac", exec_time, total);

  // CPU delivered to foreign processes vs all user CPU; workstation busy
  // time; file-server kernel time.
  double user_s = 0.0, ws_busy_s = 0.0, server_s = 0.0, servers = 0;
  for (std::size_t h = 0; h < cluster.num_hosts(); ++h) {
    auto& host = cluster.host(static_cast<HostId>(h));
    user_s += host.cpu().busy_time(JobClass::kUser).s();
    if (host.is_file_server()) {
      server_s += host.cpu().busy_time(JobClass::kKernel).s();
      servers += 1;
    }
  }
  const auto ws = cluster.workstations();
  for (HostId w : ws) ws_busy_s += cluster.host(w).cpu().utilization() * now_s;
  ratio("util_recovered", c("proc.cpu.foreign_us") / 1e6, user_s);
  ratio("cpu.ws_busy_frac", ws_busy_s, static_cast<double>(ws.size()) * now_s);
  ratio("fs.server_cpu_frac", server_s, servers * now_s);

  out.peaks["sim.queue_peak"] = tr.gauge_total("sim.engine.queue.peak");
  count("cpu.slices", "sim.engine.fired.cpu_slice");

  out.counts["net.msgs"] += static_cast<double>(cluster.net().messages_sent());
  out.counts["net.mb"] +=
      static_cast<double>(cluster.net().bytes_sent()) / (1 << 20);
  ratio("net.util", cluster.net().utilization() * now_s, now_s);

  count("rpc.calls", "rpc.call.started");
  count("rpc.dedup_hits", "rpc.dedup.hits");
  count("rpc.timeouts", "rpc.call.timedout");
  ratio("rpc.retransmit_frac", c("rpc.call.retransmitted"),
        c("rpc.call.started"));

  count("recov.probes", "recov.echo.sent");
  ratio("recov.false_suspect_frac", c("recov.suspect.false"),
        c("recov.peer.suspect"));

  count("fs.lookups", "fs.server.lookup.components");
  ratio("fs.block_hit_frac", c("fs.client.block.hit"),
        c("fs.client.block.hit") + c("fs.client.block.miss"));
  ratio("fs.name_hit_frac", c("fs.server.open.hinted"),
        c("fs.server.open.served"));
  count("fs.server_reads", "fs.server.read.served");
  count("fs.server_writes", "fs.server.write.served");
  out.counts["fs.server_write_mb"] += c("fs.server.write.bytes") / (1 << 20);
  count("fs.disk_ops", "fs.server.disk.accessed");

  count("vm.faults", "vm.page.faulted");
  count("vm.pages_flushed", "vm.page.flushed");
  count("vm.pages_paged_in", "vm.page.paged_in");
  count("vm.pages_remote_pulled", "vm.page.remote_pulled");

  count("proc.syscalls", "proc.syscall.entered");
  count("proc.spawned", "proc.process.spawned");
  ratio("proc.forwarded_frac", c("proc.syscall.forwarded_home"),
        c("proc.syscall.entered"));

  count("mig.completed", "mig.out.completed");
  count("mig.failed", "mig.out.failed");

  out.counts["xfer.mb"] += c("xfer.bytes.sent") / (1 << 20);
  count("xfer.pages_sent", "xfer.page.sent");
  count("xfer.rounds", "xfer.round.completed");
  ratio("xfer.resent_frac", c("xfer.page.resent"), c("xfer.page.sent"));
  ratio("xfer.dedup_frac", c("xfer.page.deduped"),
        c("xfer.page.deduped") + c("xfer.page.sent"));
  ratio("xfer.push_redundant_frac", c("xfer.push.redundant"),
        c("xfer.page.pushed"));

  // A request asks for one or more hosts; the grant share counts requests
  // that came back with at least one.
  count("ls.requests", "ls.select.requested");
  ratio("ls.grant_frac", c("ls.select.requested") - c("ls.select.empty_grant"),
        c("ls.select.requested"));
  out.add_histogram("ls.grant_ms", tr.histogram_total("ls.select.grant_ms"));
  count("ls.update_events", "sim.engine.fired.ls_update");

  count("wl.events_applied", "workload.event.applied");
  count("wl.jobs_finished", "workload.job.finished");
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = kFnvOffset) {
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::string sim_digest(sprite::kern::Cluster& cluster) {
  std::istringstream in(cluster.sim().trace().metrics_json());
  std::uint64_t h = kFnvOffset;
  std::string line;
  while (std::getline(in, line))
    if (line.find("\"name\":\"sim.engine.events_per_sec\"") ==
        std::string::npos)
      h = fnv1a(line + "\n", h);
  return hex64(h);
}

std::string combine_digests(const std::vector<std::string>& digests) {
  std::uint64_t h = kFnvOffset;
  for (const auto& d : digests) h = fnv1a(d, h);
  return hex64(h);
}

}  // namespace perfbench
