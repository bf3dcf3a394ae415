// Trace validation ("lint") — the CI gate for the observability layer.
//
// Two real runs are exported and checked structurally: a traced migration
// demo, and a seeded fault case (a dropped reply forcing retransmission +
// dedup). For each export:
//   * the Chrome JSON parses,
//   * every 'b' event has a matching 'e' (same id, exactly once),
//   * every flow pair resolves — each flow-start ('s') has a flow-finish
//     ('f') with the same flow id and both bind to real events,
//   * every metric name in the final snapshot matches the
//     `subsystem.noun.verb` convention.
// A final sweep greps src/ for counter()/gauge()/histogram() registrations
// so new metrics cannot drift from the convention unnoticed, and checks that
// every metric name tests, benches and examples read back by string is one
// src/ registers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/manager.h"
#include "core/sprite.h"
#include "proc/script.h"
#include "proc/table.h"
#include "rpc/rpc.h"
#include "sim/fault.h"
#include "sim/nemesis.h"
#include "trace/trace.h"
#include "workload/soak.h"

namespace sprite::trace {
namespace {

using core::SpriteCluster;
using proc::ScriptBuilder;
using sim::Time;

// ---------------------------------------------------------------------------
// A tiny recursive-descent JSON parser producing just enough structure to
// lint trace events (objects with string/number fields, arrays). No external
// dependency; rejects malformed input by returning nullopt-like failure.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue* get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  std::string get_str(const std::string& key) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : "";
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JsonValue::Kind::kString; return string(out.str);
      case 't': out.kind = JsonValue::Kind::kBool; return literal("true");
      case 'f': out.kind = JsonValue::Kind::kBool; return literal("false");
      case 'n': out.kind = JsonValue::Kind::kNull; return literal("null");
      default: out.kind = JsonValue::Kind::kNumber; return number(out.num);
    }
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.obj.emplace(std::move(key), std::move(v));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string(std::string& out) {
    if (peek() != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u':
            if (pos_ + 4 >= s_.size()) return false;
            pos_ += 4;  // keep the escape opaque; lint only needs names
            out.push_back('?');
            break;
          default: out.push_back(s_[pos_]);
        }
        ++pos_;
        continue;
      }
      out.push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool number(double& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    out = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// The structural lint itself.
// ---------------------------------------------------------------------------

// `subsystem.noun.verb`: lowercase dotted segments, at least two dots, each
// segment [a-z0-9_]+.
bool metric_name_ok(const std::string& name) {
  static const std::regex re("^[a-z0-9_]+(\\.[a-z0-9_]+){2,}$");
  return std::regex_match(name, re);
}

void lint_chrome_json(const Registry& tr) {
  const std::string json = tr.chrome_json();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).parse(root)) << "chrome_json does not parse";
  const JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  // 'b'/'e' pairing, keyed by (span) id within (pid, cat-thread) is global
  // here: span ids are globally unique, so pair on id alone.
  std::map<std::string, int> open;  // id -> balance
  std::map<std::string, int> flow_start;
  std::map<std::string, int> flow_finish;
  std::map<std::string, int> begins_at;  // "pid/tid/ts" -> count, flow anchors
  for (const JsonValue& e : events->arr) {
    const std::string ph = e.get_str("ph");
    if (ph == "b") {
      ++open[e.get_str("id")];
      std::ostringstream key;
      key << e.get("pid")->num << "/" << e.get("tid")->num << "/"
          << e.get("ts")->num;
      ++begins_at[key.str()];
    } else if (ph == "e") {
      --open[e.get_str("id")];
    } else if (ph == "s" || ph == "f") {
      ASSERT_NE(e.get("id"), nullptr);
      (ph == "s" ? flow_start : flow_finish)[e.get_str("id")]++;
      // Flow events bind to the event at (pid, tid, ts): one must exist.
      std::ostringstream key;
      key << e.get("pid")->num << "/" << e.get("tid")->num << "/"
          << e.get("ts")->num;
      EXPECT_GE(begins_at[key.str()], 1)
          << "flow '" << ph << "' id=" << e.get_str("id")
          << " does not bind to any span begin";
    }
  }
  for (const auto& [id, bal] : open)
    EXPECT_EQ(bal, 0) << "unbalanced b/e for span id " << id;
  for (const auto& [id, n] : flow_start)
    EXPECT_EQ(flow_finish[id], n) << "flow start without finish, id " << id;
  for (const auto& [id, n] : flow_finish)
    EXPECT_EQ(flow_start[id], n) << "flow finish without start, id " << id;
}

void lint_metric_names(const Registry& tr) {
  JsonValue root;
  ASSERT_TRUE(JsonParser(tr.metrics_json()).parse(root))
      << "metrics_json does not parse";
  int seen = 0;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* s = root.get(section);
    ASSERT_NE(s, nullptr) << section;
    ASSERT_EQ(s->kind, JsonValue::Kind::kArray) << section;
    for (const JsonValue& m : s->arr) {
      const std::string metric = m.get_str("name");
      EXPECT_TRUE(metric_name_ok(metric))
          << "metric '" << metric << "' violates subsystem.noun.verb";
      ++seen;
    }
  }
  EXPECT_GT(seen, 0);
}

// Demo: a traced 3-host migration (the acceptance scenario).
TEST(TraceLintTest, TracedMigrationDemoExportIsWellFormed) {
  SpriteCluster cluster({.workstations = 3, .seed = 11,
                         .enable_load_sharing = false});
  Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);
  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 64, true})
      .compute(Time::sec(2))
      .exit(0);
  cluster.install_program("/bin/work", b.image(8, 64, 2));
  const auto pid = cluster.spawn(cluster.workstation(0), "/bin/work", {});
  cluster.run_for(Time::msec(500));
  ASSERT_TRUE(cluster.migrate(pid, cluster.workstation(1)).is_ok());
  cluster.wait(pid);
  // Drain in-flight RPCs (exit notifications to home) so the export is a
  // quiesced run: every span begun has had the chance to end.
  cluster.run_for(Time::sec(2));

  ASSERT_FALSE(tr.events().empty());
  lint_chrome_json(tr);
  lint_metric_names(tr);
}

// Seeded fault case: a dropped reply causes retransmission + dedup; spans
// still pair and flows still resolve (no duplicate or orphaned children).
TEST(TraceLintTest, SeededFaultCaseExportIsWellFormed) {
  SpriteCluster cluster({.workstations = 3, .seed = 23,
                         .enable_load_sharing = false});
  Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);

  sim::FaultPlan plan(cluster.sim(), cluster.kernel().net());
  plan.drop_message(rpc::RpcNode::match_reply(cluster.workstation(0)), 1);
  plan.arm({});

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(1))
      .exit(0);
  cluster.install_program("/bin/work", b.image(8, 32, 2));
  const auto pid = cluster.spawn(cluster.workstation(0), "/bin/work", {});
  cluster.run_for(Time::msec(500));
  ASSERT_TRUE(cluster.migrate(pid, cluster.workstation(1)).is_ok());
  cluster.wait(pid);
  cluster.run_for(Time::sec(2));  // quiesce before export

  lint_chrome_json(tr);
  lint_metric_names(tr);
}

// Every C++ source under `dir` (relative to the repository root), read
// whole: path -> text.
std::map<std::string, std::string> read_sources(const std::string& dir) {
  const std::filesystem::path root =
      std::filesystem::path(SPRITE_SOURCE_DIR) / dir;
  std::map<std::string, std::string> out;
  if (!std::filesystem::exists(root)) return out;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cc" && ext != ".h" && ext != ".cpp") continue;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    out[entry.path().string()] = ss.str();
  }
  return out;
}

// First capture group of every match of `re` in `text`.
std::vector<std::string> literal_args(const std::string& text,
                                      const std::regex& re) {
  std::vector<std::string> out;
  for (std::sregex_iterator it(text.begin(), text.end(), re), end; it != end;
       ++it)
    out.push_back((*it)[1].str());
  return out;
}

// counter("x.y.z") / gauge(...) / histogram(...): a literal registration.
const std::regex& registration_re() {
  static const std::regex re(
      "(?:counter|gauge|histogram)\\(\\s*\"([^\"]+)\"");
  return re;
}

// Source sweep: every counter()/gauge()/histogram() registration in src/
// uses a literal name matching the convention. Catches drift at review
// speed instead of at dashboard-breakage speed.
TEST(TraceLintTest, RegisteredMetricNamesFollowConvention) {
  const auto sources = read_sources("src");
  ASSERT_FALSE(sources.empty());
  int checked = 0;
  for (const auto& [path, text] : sources) {
    for (const std::string& name : literal_args(text, registration_re())) {
      EXPECT_TRUE(metric_name_ok(name))
          << path << ": metric '" << name << "' violates subsystem.noun.verb";
      ++checked;
    }
  }
  EXPECT_GT(checked, 50) << "sweep found suspiciously few registrations";
}

// The registry is the only store of statistics, and counter_value() /
// counter_total() / histogram_total() return 0 / empty for a name nobody
// registered — so a misspelled name read back as a string would pass
// silently. Every literal read under tests/, bench/ and examples/ must be a
// name src/ registers, start with a prefix src/ registers dynamically
// (`std::string("sim.engine.fired.") + label`), or be registered in the
// reading file itself (the registry's own unit tests). Names under `no.such.`
// are read on purpose, to check the never-registered case.
TEST(TraceLintTest, MetricNamesReadByStringAreRegistered) {
  std::set<std::string> registered;
  std::vector<std::string> prefixes;
  static const std::regex dynamic(
      "(?:counter|gauge|histogram)\\(\\s*(?:std::string\\()?\"([^\"]+\\.)\"\\)?"
      "\\s*\\+");
  for (const auto& [path, text] : read_sources("src")) {
    for (const std::string& name : literal_args(text, registration_re()))
      registered.insert(name);
    for (const std::string& prefix : literal_args(text, dynamic))
      prefixes.push_back(prefix);
  }
  ASSERT_GT(registered.size(), 50u);
  ASSERT_FALSE(prefixes.empty()) << "sim.engine.fired.* registration not found";

  static const std::regex read(
      "(?:counter_value|counter_total|histogram_total)\\(\\s*\"([^\"]+)\"");
  int checked = 0;
  for (const char* dir : {"tests", "bench", "examples"}) {
    for (const auto& [path, text] : read_sources(dir)) {
      const auto local = literal_args(text, registration_re());
      for (const std::string& name : literal_args(text, read)) {
        ++checked;
        if (registered.count(name) || name.rfind("no.such.", 0) == 0) continue;
        if (std::find(local.begin(), local.end(), name) != local.end())
          continue;
        bool dynamic_ok = false;
        for (const std::string& p : prefixes)
          dynamic_ok = dynamic_ok || name.rfind(p, 0) == 0;
        EXPECT_TRUE(dynamic_ok)
            << path << ": reads metric '" << name
            << "', which nothing in src/ registers (misspelled?)";
      }
    }
  }
  EXPECT_GT(checked, 50) << "sweep found suspiciously few metric reads";
}

// Checkpoint metric inventory: every ckpt.* name the subsystem documents
// must actually be registered (and lint-clean) after a checkpoint +
// crash-recovery run, and the flight recorder must hold the capture and
// restart instants. Catches silent renames that would orphan dashboards.
TEST(TraceLintTest, CheckpointMetricsRegisteredAndFlightNoted) {
  SpriteCluster cluster({.workstations = 3, .seed = 7,
                         .enable_load_sharing = false});
  Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);
  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(20))
      .exit(0);
  cluster.install_program("/bin/ckwork", b.image(8, 32, 2));
  const auto pid = cluster.spawn(cluster.workstation(0), "/bin/ckwork", {});
  cluster.run_for(Time::msec(500));
  ASSERT_TRUE(cluster.migrate(pid, cluster.workstation(1)).is_ok());
  cluster.run_for(Time::msec(500));

  auto& runner = cluster.host(cluster.workstation(1));
  auto pcb = runner.procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  bool ck_done = false;
  runner.ckpt().checkpoint(pcb, [&](util::Status s) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    ck_done = true;
  });
  cluster.kernel().run_until_done([&] { return ck_done; });
  cluster.run_for(Time::msec(200));
  cluster.kernel().crash_host(cluster.workstation(1));
  cluster.run_for(Time::sec(60));  // down verdict + restart + completion

  // Every documented ckpt.* metric is present in the export.
  JsonValue root;
  ASSERT_TRUE(JsonParser(tr.metrics_json()).parse(root));
  std::map<std::string, bool> want = {
      {"ckpt.capture.completed", false}, {"ckpt.capture.failed", false},
      {"ckpt.capture.full_base", false}, {"ckpt.capture.incremental", false},
      {"ckpt.capture.declined", false},  {"ckpt.page.captured", false},
      {"ckpt.restart.completed", false}, {"ckpt.restart.failed", false},
      {"ckpt.page.restored", false},     {"ckpt.chain.compacted", false},
      {"ckpt.auto.triggered", false},    {"ckpt.depart.completed", false},
      {"ckpt.stale.reaped", false},      {"ckpt.register.received", false},
      {"ckpt.capture.total_ms", false},  {"ckpt.restart.total_ms", false},
  };
  for (const char* section : {"counters", "histograms"}) {
    const JsonValue* s = root.get(section);
    ASSERT_NE(s, nullptr);
    for (const JsonValue& m : s->arr) {
      auto it = want.find(m.get_str("name"));
      if (it != want.end()) it->second = true;
    }
  }
  for (const auto& [name, seen] : want)
    EXPECT_TRUE(seen) << "ckpt metric not registered: " << name;

  // The always-on flight recorder holds the capture and restart events.
  bool captured = false, restarted = false;
  for (const auto& n : tr.flight().tail(4096)) {
    const std::string cat = n.cat;
    if (cat == "ckpt.capture") captured = true;
    if (cat == "ckpt.restart") restarted = true;
  }
  EXPECT_TRUE(captured) << "no ckpt.capture flight note";
  EXPECT_TRUE(restarted) << "no ckpt.restart flight note";

  lint_chrome_json(tr);
  lint_metric_names(tr);
}

// Replicated-FS metric inventory: every fs.repl.* / fs.failover.* /
// fs.cache.* robustness name must be registered (and lint-clean) after a
// replicated failover run, and the flight recorder must hold the promotion
// and reroute events.
TEST(TraceLintTest, FsFailoverMetricsRegisteredAndFlightNoted) {
  SpriteCluster cluster({.workstations = 1, .file_servers = 1,
                         .fs_replicas = 2, .seed = 9,
                         .enable_load_sharing = false});
  Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);

  // One dirty write, then kill the primary: suspicion flushes early, the
  // down verdict promotes the backup and reroutes the client.
  const auto ws = cluster.workstation(0);
  bool wrote = false;
  cluster.host(ws).fs().open(
      "/lintfile", fs::OpenFlags::create_rw(),
      [&](util::Result<fs::StreamPtr> r) {
        ASSERT_TRUE(r.is_ok());
        cluster.host(ws).fs().write(*r, fs::Bytes(64, 'x'),
                                    [&](util::Result<std::int64_t> w) {
                                      ASSERT_TRUE(w.is_ok());
                                      wrote = true;
                                    });
      });
  cluster.kernel().run_until_done([&] { return wrote; });
  cluster.kernel().crash_host(cluster.kernel().file_server().id());
  cluster.run_for(Time::sec(60));  // verdict + promotion + rehomed flush

  JsonValue root;
  ASSERT_TRUE(JsonParser(tr.metrics_json()).parse(root));
  std::map<std::string, bool> want = {
      {"fs.repl.records_applied", false}, {"fs.repl.solo_ops", false},
      {"fs.repl.catchup_records", false}, {"fs.repl.snapshot_syncs", false},
      {"fs.repl.divergent_ops", false},   {"fs.failover.promotions", false},
      {"fs.failover.demotions", false},   {"fs.failover.rejected_ops", false},
      {"fs.failover.reroutes", false},    {"fs.failover.reopens", false},
      {"fs.failover.rehomed_blocks", false},
      {"fs.failover.latency_ms", false},  {"fs.cache.dirty_lost", false},
      {"fs.cache.suspect_flush", false},
  };
  for (const char* section : {"counters", "histograms"}) {
    const JsonValue* s = root.get(section);
    ASSERT_NE(s, nullptr);
    for (const JsonValue& m : s->arr) {
      auto it = want.find(m.get_str("name"));
      if (it != want.end()) it->second = true;
    }
  }
  for (const auto& [name, seen] : want)
    EXPECT_TRUE(seen) << "fs failover metric not registered: " << name;

  bool promoted = false, rerouted = false;
  for (const auto& n : tr.flight().tail(4096)) {
    if (std::string_view(n.cat) != "fs.failover") continue;
    if (std::string_view(n.name) == "promoted") promoted = true;
    if (std::string_view(n.name) == "reroute") rerouted = true;
  }
  EXPECT_TRUE(promoted) << "no fs.failover promotion flight note";
  EXPECT_TRUE(rerouted) << "no fs.failover reroute flight note";

  lint_chrome_json(tr);
  lint_metric_names(tr);
}

// Workload/soak metric inventory: every workload.* and soak.* name the
// subsystem documents must be registered (and lint-clean) after a short
// engine-driven run on the soak harness.
TEST(TraceLintTest, WorkloadAndSoakMetricsRegistered) {
  wl::SoakOptions opts;
  opts.workstations = 4;
  opts.seed = 3;
  opts.sessions.users = 8;
  opts.sessions.horizon = Time::minutes(40);
  opts.faults = false;  // keep the lint run quick; fault metrics have their
                        // own inventory coverage
  wl::SoakHarness harness(opts);
  harness.run();

  JsonValue root;
  ASSERT_TRUE(
      JsonParser(harness.cluster().sim().trace().metrics_json()).parse(root));
  std::map<std::string, bool> want = {
      {"workload.event.applied", false},  {"workload.event.skipped", false},
      {"workload.session.begun", false},  {"workload.session.ended", false},
      {"workload.session.active", false}, {"workload.keystroke.applied", false},
      {"workload.job.submitted", false},  {"workload.job.launched", false},
      {"workload.job.placed", false},     {"workload.job.finished", false},
      {"workload.job.crashed", false},    {"workload.job.dropped", false},
      {"workload.job.queued", false},     {"workload.job.running", false},
      {"workload.job.backlog", false},    {"workload.storm.begun", false},
      {"workload.storm.finished", false}, {"workload.storm.crashed", false},
      {"proc.cpu.foreign_us", false},     {"soak.residency.foreign", false},
      {"soak.util.recovered", false},     {"ls.eviction.latency_ms", false},
  };
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* s = root.get(section);
    ASSERT_NE(s, nullptr);
    for (const JsonValue& m : s->arr) {
      auto it = want.find(m.get_str("name"));
      if (it != want.end()) it->second = true;
    }
  }
  for (const auto& [name, seen] : want)
    EXPECT_TRUE(seen) << "workload/soak metric not registered: " << name;

  lint_metric_names(harness.cluster().sim().trace());
}

// Continuous-telemetry metric inventory: the engine self-profiler, the
// series sampler, and the SLO watchdog all publish registry metrics; a
// soak-harness run (which arms all three) must register every documented
// name, including at least one per-label sim.engine.fired.* counter.
TEST(TraceLintTest, TelemetryMetricsRegistered) {
  wl::SoakOptions opts;
  opts.workstations = 6;
  // The per-label fired counters register lazily on first fire, so the run
  // must actually generate sessions: seed 1 @ 16 users does within 45 min.
  opts.seed = 1;
  opts.sessions.users = 16;
  opts.sessions.horizon = Time::minutes(45);
  opts.faults = false;
  wl::SoakHarness harness(opts);
  harness.run();

  JsonValue root;
  ASSERT_TRUE(
      JsonParser(harness.cluster().sim().trace().metrics_json()).parse(root));
  std::map<std::string, bool> want = {
      {"sim.engine.event.fired", false},   {"sim.engine.queue.peak", false},
      {"sim.engine.fired.net_deliver", false},
      {"sim.engine.fired.trace_series_sample", false},
      {"trace.series.samples", false},     {"trace.series.dropped", false},
      {"trace.series.tracked", false},     {"slo.rule.evaluated", false},
      {"slo.rule.armed", false},           {"slo.breach.fired", false},
  };
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* s = root.get(section);
    ASSERT_NE(s, nullptr);
    for (const JsonValue& m : s->arr) {
      auto it = want.find(m.get_str("name"));
      if (it != want.end()) it->second = true;
    }
  }
  for (const auto& [name, seen] : want)
    EXPECT_TRUE(seen) << "telemetry metric not registered: " << name;

  lint_metric_names(harness.cluster().sim().trace());
}

// Integrity/nemesis metric inventory: every fs.scrub.* / fs.journal.* /
// nemesis.* name (plus the dedup-hit, restore-fallback, and new fault
// counters) must be registered and lint-clean after a short nemesis run
// that arms the whole fault vocabulary.
TEST(TraceLintTest, IntegrityAndNemesisMetricsRegistered) {
  sim::NemesisOptions opts;
  opts.workstations = 4;
  opts.fs_replicas = 2;
  opts.seed = 5;
  opts.horizon = sim::Time::minutes(20);
  opts.users = 2;
  opts.checker_rounds = 8;
  sim::NemesisHarness harness(opts);
  harness.run();

  JsonValue root;
  ASSERT_TRUE(
      JsonParser(harness.cluster().sim().trace().metrics_json()).parse(root));
  std::map<std::string, bool> want = {
      {"fs.scrub.runs", false},          {"fs.scrub.blocks_checked", false},
      {"fs.scrub.corrupt_found", false}, {"fs.scrub.repaired", false},
      {"fs.scrub.unrepairable", false},  {"fs.scrub.read_detected", false},
      {"fs.journal.appended", false},    {"fs.journal.replayed", false},
      {"fs.journal.discarded", false},   {"fs.server.write.nospace", false},
      {"rpc.dedup.hits", false},         {"ckpt.restore.fell_back", false},
      {"fault.message.duplicated", false},
      {"fault.message.reordered", false},
      {"fault.block.corrupted", false},  {"fault.write.torn", false},
      {"fault.disk.filled", false},      {"nemesis.check.rounds", false},
      {"nemesis.check.commits", false},
      {"nemesis.check.errors_tolerated", false},
      {"nemesis.check.stale_reads", false},
      {"nemesis.check.violations", false},
  };
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* s = root.get(section);
    ASSERT_NE(s, nullptr);
    for (const JsonValue& m : s->arr) {
      auto it = want.find(m.get_str("name"));
      if (it != want.end()) it->second = true;
    }
  }
  for (const auto& [name, seen] : want)
    EXPECT_TRUE(seen) << "integrity/nemesis metric not registered: " << name;

  lint_metric_names(harness.cluster().sim().trace());
}

// Live-transfer engine metric inventory: every xfer.* name the engine
// documents must be registered (and lint-clean) after the three modern
// strategies have each run, and the flight recorder must hold the
// session-start and push-drain instants.
TEST(TraceLintTest, XferMetricsRegisteredAndFlightNoted) {
  SpriteCluster cluster({.workstations = 3, .seed = 11,
                         .enable_load_sharing = false});
  Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);
  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kCode, 0, 32, false})
      .act(proc::Touch{vm::Segment::kHeap, 0, 64, true})
      .act(proc::Pause{Time::hours(1)})
      .exit(0);
  cluster.install_program("/bin/xferwork", b.image(32, 64, 4));
  int target = 1;
  for (const mig::VmStrategy strategy :
       {mig::VmStrategy::kIterPreCopy, mig::VmStrategy::kPostCopy,
        mig::VmStrategy::kContentAddr, mig::VmStrategy::kContentAddr}) {
    const auto pid = cluster.spawn(cluster.workstation(0), "/bin/xferwork", {});
    cluster.run_for(Time::sec(2));
    cluster.host(cluster.workstation(0)).mig().set_strategy(strategy);
    ASSERT_TRUE(cluster.migrate(pid, cluster.workstation(target)).is_ok());
    target = target == 1 ? 2 : 1;
  }
  cluster.run_for(Time::sec(10));  // background push drains

  JsonValue root;
  ASSERT_TRUE(JsonParser(tr.metrics_json()).parse(root));
  std::map<std::string, bool> want = {
      {"xfer.round.completed", false},     {"xfer.page.sent", false},
      {"xfer.page.resent", false},         {"xfer.page.deduped", false},
      {"xfer.ref.sent", false},            {"xfer.page.pushed", false},
      {"xfer.push.redundant", false},      {"xfer.bytes.sent", false},
      {"xfer.postcopy.drained", false},    {"xfer.migration.downtime_ms", false},
      {"xfer.round.pages", false},         {"xfer.postcopy.drain_ms", false},
  };
  for (const char* section : {"counters", "histograms"}) {
    const JsonValue* s = root.get(section);
    ASSERT_NE(s, nullptr);
    for (const JsonValue& m : s->arr) {
      auto it = want.find(m.get_str("name"));
      if (it != want.end()) it->second = true;
    }
  }
  for (const auto& [name, seen] : want)
    EXPECT_TRUE(seen) << "xfer metric not registered: " << name;

  bool started = false, drained = false;
  for (const auto& n : tr.flight().tail(4096)) {
    const std::string cat = n.cat;
    if (cat == "xfer.start") started = true;
    if (cat == "xfer.push" && std::string(n.name) == "drained") drained = true;
  }
  EXPECT_TRUE(started) << "no xfer.start flight note";
  EXPECT_TRUE(drained) << "no xfer.push drained flight note";
  lint_metric_names(tr);
}

}  // namespace
}  // namespace sprite::trace
