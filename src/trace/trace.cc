#include "trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "util/assert.h"
#include "util/log.h"
#include "util/table.h"

namespace sprite::trace {

namespace {

// Only one registry at a time may capture kTrace log lines (the same
// last-wins discipline the log time source uses across Simulators).
Registry* g_log_sink_owner = nullptr;

// Last-constructed registry owns the CHECK-failure flight dump (same
// last-wins discipline; tests that build several Simulators get the most
// recent one's forensics, which is the one that was running).
Registry* g_flight_owner = nullptr;

void flight_check_hook() {
  if (g_flight_owner != nullptr) g_flight_owner->dump_flight("CHECK failure");
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Chrome "pid" must be non-negative; unattributable events (global log
// lines, cluster-wide bookkeeping) render under one synthetic process.
constexpr int kGlobalPid = 999;

int chrome_pid(sim::HostId h) {
  return h == sim::kInvalidHost ? kGlobalPid : static_cast<int>(h);
}

void append_args(std::string& out, const Args& args, std::int64_t pid) {
  out += ",\"args\":{";
  bool first = true;
  if (pid >= 0) {
    out += "\"pid\":";
    out += std::to_string(pid);
    first = false;
  }
  for (const auto& [k, v] : args) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape_into(out, k);
    out += "\":\"";
    json_escape_into(out, v);
    out += '"';
  }
  out += '}';
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

LatencyHistogram::LatencyHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  SPRITE_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                   "histogram bounds must be sorted");
}

void LatencyHistogram::record(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v >= bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += v;
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::note(std::int64_t ts_us, sim::HostId host,
                          std::int64_t pid, const char* cat, const char* name,
                          std::int64_t a0, std::int64_t a1) {
  ring_[next_] = Entry{ts_us, host, pid, cat, name, a0, a1};
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::vector<FlightRecorder::Entry> FlightRecorder::tail(std::size_t n) const {
  const std::size_t have =
      std::min<std::size_t>(static_cast<std::size_t>(recorded_), ring_.size());
  n = std::min(n, have);
  std::vector<Entry> out;
  out.reserve(n);
  // next_ points at the oldest entry once the ring has wrapped.
  std::size_t i = (next_ + ring_.size() - n) % ring_.size();
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(ring_[i]);
    i = (i + 1) % ring_.size();
  }
  return out;
}

std::string FlightRecorder::report(std::size_t n) const {
  std::string out;
  char buf[192];
  for (const Entry& e : tail(n)) {
    std::snprintf(buf, sizeof buf,
                  "  [%12.3fms] host=%-3d pid=%-5lld %-14s %-20s %lld %lld\n",
                  static_cast<double>(e.ts_us) / 1e3, e.host,
                  static_cast<long long>(e.pid), e.cat, e.name,
                  static_cast<long long>(e.a0), static_cast<long long>(e.a1));
    out += buf;
  }
  return out;
}

void FlightRecorder::clear() {
  std::fill(ring_.begin(), ring_.end(), Entry{});
  next_ = 0;
  recorded_ = 0;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry(std::function<std::int64_t()> now_us)
    : now_us_(std::move(now_us)) {
  SPRITE_CHECK(now_us_ != nullptr);
  g_flight_owner = this;
  util::set_check_failure_hook(&flight_check_hook);
  if (const char* env = std::getenv("SPRITE_FLIGHT_DUMP_ON_VERDICT"))
    dump_on_down_verdict_ = env[0] != '\0' && env[0] != '0';
}

Registry::~Registry() {
  if (g_log_sink_owner == this) {
    util::set_log_trace_sink(nullptr);
    g_log_sink_owner = nullptr;
  }
  if (g_flight_owner == this) {
    g_flight_owner = nullptr;
    util::set_check_failure_hook(nullptr);
  }
}

void Registry::dump_flight(const char* why, std::size_t n) const {
  const std::size_t shown = std::min<std::size_t>(
      n, std::min<std::size_t>(static_cast<std::size_t>(flight_.recorded()),
                               flight_.capacity()));
  std::fprintf(stderr,
               "--- flight recorder (%s): last %zu of %lld events ---\n", why,
               shown, static_cast<long long>(flight_.recorded()));
  const std::string tail = flight_.report(n);
  std::fwrite(tail.data(), 1, tail.size(), stderr);
  std::fputs("--- metrics snapshot ---\n", stderr);
  const std::string metrics = metrics_report();
  std::fwrite(metrics.data(), 1, metrics.size(), stderr);
  if (dump_hook_) {
    // Engine self-profile (hottest event types): what the engine was
    // spending its time on when the run died or stalled.
    const std::string extra = dump_hook_();
    if (!extra.empty()) std::fwrite(extra.data(), 1, extra.size(), stderr);
  }
  std::fflush(stderr);
}

void Registry::set_tracing(bool on) {
  tracing_ = on;
  if (on) {
    g_log_sink_owner = this;
    util::set_log_trace_sink([this](const char* tag, const char* body) {
      instant(tag, body, sim::kInvalidHost);
    });
  } else if (g_log_sink_owner == this) {
    util::set_log_trace_sink(nullptr);
    g_log_sink_owner = nullptr;
  }
}

void Registry::set_host_name(sim::HostId h, std::string name) {
  host_names_[h] = std::move(name);
}

Counter& Registry::counter(const std::string& name, sim::HostId host) {
  return counters_[{name, host}];
}

Gauge& Registry::gauge(const std::string& name, sim::HostId host) {
  return gauges_[{name, host}];
}

LatencyHistogram& Registry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      sim::HostId host) {
  auto it = histograms_.find({name, host});
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::make_pair(name, host),
                      LatencyHistogram(std::move(bounds)))
             .first;
  }
  return it->second;
}

std::int64_t Registry::counter_value(const std::string& name,
                                     sim::HostId host) const {
  auto it = counters_.find({name, host});
  return it == counters_.end() ? 0 : it->second.value();
}

// The (name, host) pair keys sort by name first, so every slot of one metric
// is a contiguous map range starting at (name, kInvalidHost) — kInvalidHost
// is -1, below every real host id.
std::int64_t Registry::counter_total(const std::string& name) const {
  std::int64_t total = 0;
  for (auto it = counters_.lower_bound({name, sim::kInvalidHost});
       it != counters_.end() && it->first.first == name; ++it)
    total += it->second.value();
  return total;
}

double Registry::gauge_total(const std::string& name) const {
  double total = 0.0;
  for (auto it = gauges_.lower_bound({name, sim::kInvalidHost});
       it != gauges_.end() && it->first.first == name; ++it)
    total += it->second.value();
  return total;
}

Registry::HistSnapshot Registry::histogram_total(const std::string& name) const {
  HistSnapshot snap;
  for (auto it = histograms_.lower_bound({name, sim::kInvalidHost});
       it != histograms_.end() && it->first.first == name; ++it) {
    const LatencyHistogram& h = it->second;
    if (snap.bounds.empty()) {
      snap.bounds = h.bounds();
      snap.counts.assign(snap.bounds.size() + 1, 0);
    }
    // Slots of one name share bounds (fixed by the first registration).
    for (std::size_t b = 0; b < snap.counts.size(); ++b)
      snap.counts[b] += h.bucket(b);
    snap.count += h.count();
    snap.sum += h.sum();
  }
  return snap;
}

int Registry::lane_for(const std::string& cat) {
  auto it = lanes_.find(cat);
  if (it == lanes_.end())
    it = lanes_.emplace(cat, static_cast<int>(lanes_.size()) + 1).first;
  return it->second;
}

bool Registry::record(Event e) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(e));
  return true;
}

Context Registry::new_trace() {
  if (!tracing_) return Context{};
  return Context{next_trace_++, 0};
}

SpanId Registry::reserve_span() {
  if (!tracing_) return 0;
  return next_span_++;
}

Context Registry::span_context(SpanId id) const {
  auto it = open_spans_.find(id);
  if (it == open_spans_.end()) return Context{};
  return Context{it->second.trace_id, id};
}

SpanId Registry::begin_span(std::string cat, std::string name,
                            sim::HostId host, std::int64_t pid, Args args) {
  if (!tracing_) return 0;
  const SpanId id = next_span_++;
  const int lane = lane_for(cat);
  if (!record(Event{'b', now_us_(), host, pid, id, current_.trace_id,
                    current_.parent_span, lane, cat, name, std::move(args)}))
    return 0;
  open_spans_.emplace(id, OpenSpan{std::move(cat), std::move(name), host,
                                   pid, lane, current_.trace_id});
  return id;
}

void Registry::end_span(SpanId id, Args args) {
  if (id == 0) return;
  auto it = open_spans_.find(id);
  if (it == open_spans_.end()) {
    // Stale id: its begin was discarded by clear_events() (or dropped at the
    // buffer cap); emitting a dangling 'e' would corrupt the span pairing.
    counter("trace.span.orphaned").inc();
    return;
  }
  OpenSpan sp = std::move(it->second);
  open_spans_.erase(it);
  if (!tracing_) return;
  record(Event{'e', now_us_(), sp.host, sp.pid, id, 0, 0, sp.lane,
               std::move(sp.cat), std::move(sp.name), std::move(args)});
}

void Registry::instant(std::string cat, std::string name, sim::HostId host,
                       std::int64_t pid, Args args) {
  if (!tracing_) return;
  const int lane = lane_for(cat);
  record(Event{'i', now_us_(), host, pid, 0, 0, 0, lane, std::move(cat),
               std::move(name), std::move(args)});
}

SpanId Registry::span_at(std::string cat, std::string name, sim::HostId host,
                         std::int64_t pid, sim::Time begin, sim::Time end,
                         Args args, Context parent, SpanId reuse_id) {
  if (!tracing_) return 0;
  const SpanId id = reuse_id != 0 ? reuse_id : next_span_++;
  const int lane = lane_for(cat);
  record(Event{'b', begin.us(), host, pid, id, parent.trace_id,
               parent.parent_span, lane, cat, name, std::move(args)});
  record(Event{'e', end.us(), host, pid, id, 0, 0, lane, std::move(cat),
               std::move(name), {}});
  return id;
}

void Registry::clear_events() {
  events_.clear();
  // Spans still open lose their begin event with the clear: drop the ids so
  // their eventual end_span() cannot emit a dangling 'e' (it lands in the
  // trace.span.orphaned counter instead).
  open_spans_.clear();
  dropped_ = 0;
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

std::string Registry::chrome_json() const {
  std::string out;
  out.reserve(events_.size() * 96 + 1024);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: hosts as processes, categories as per-process threads.
  std::set<int> pids;
  std::set<std::pair<int, int>> threads;  // (pid, lane)
  for (const auto& e : events_) {
    pids.insert(chrome_pid(e.host));
    threads.insert({chrome_pid(e.host), e.lane});
  }
  // lane -> category name (lanes_ is cat -> lane).
  std::map<int, std::string> lane_names;
  for (const auto& [cat, lane] : lanes_) lane_names[lane] = cat;

  for (int pid : pids) {
    std::string name = pid == kGlobalPid ? "cluster" : "host";
    if (pid != kGlobalPid) {
      auto it = host_names_.find(static_cast<sim::HostId>(pid));
      name = it != host_names_.end() ? it->second
                                     : "host" + std::to_string(pid);
    }
    sep();
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"";
    json_escape_into(out, name);
    out += "\"}}";
  }
  for (const auto& [pid, lane] : threads) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(lane) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_escape_into(out, lane_names.count(lane) ? lane_names[lane] : "?");
    out += "\"}}";
  }

  auto hex_id = [](std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };

  for (const auto& e : events_) {
    sep();
    out += "{\"ph\":\"";
    out += e.phase;
    out += "\",\"cat\":\"";
    json_escape_into(out, e.cat);
    out += "\",\"name\":\"";
    json_escape_into(out, e.name);
    out += "\",\"pid\":" + std::to_string(chrome_pid(e.host)) +
           ",\"tid\":" + std::to_string(e.lane) +
           ",\"ts\":" + std::to_string(e.ts_us);
    if (e.phase == 'b' || e.phase == 'e') {
      out += ",\"id\":\"" + hex_id(e.id) + '"';
    } else {
      out += ",\"s\":\"t\"";
    }
    if (e.phase == 'b' && (e.trace_id != 0 || e.parent != 0)) {
      Args annotated = e.args;
      if (e.trace_id != 0)
        annotated.emplace_back("trace", hex_id(e.trace_id));
      if (e.parent != 0) annotated.emplace_back("parent", hex_id(e.parent));
      append_args(out, annotated, e.pid);
    } else {
      append_args(out, e.args, e.pid);
    }
    out += '}';
  }

  // Causality arrows: each parent/child span edge that crosses hosts becomes
  // a flow-event pair — 's' anchored at the parent's begin on the parent's
  // track, 'f' (bp:"e") at the child's begin on the child's track. Emitted
  // in child-span-id order, so the export stays byte-identical per seed.
  std::map<SpanId, const Event*> begin_by_id;
  for (const auto& e : events_)
    if (e.phase == 'b') begin_by_id.emplace(e.id, &e);
  for (const auto& [id, child] : begin_by_id) {
    if (child->parent == 0) continue;
    auto pit = begin_by_id.find(child->parent);
    if (pit == begin_by_id.end()) continue;
    const Event* parent = pit->second;
    if (parent->host == child->host) continue;
    const std::string flow_id = hex_id(id);
    sep();
    out += "{\"ph\":\"s\",\"cat\":\"flow\",\"name\":\"causal\",\"id\":\"" +
           flow_id + "\",\"pid\":" + std::to_string(chrome_pid(parent->host)) +
           ",\"tid\":" + std::to_string(parent->lane) +
           ",\"ts\":" + std::to_string(parent->ts_us) + "}";
    sep();
    out += "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"name\":\"causal\","
           "\"id\":\"" +
           flow_id + "\",\"pid\":" + std::to_string(chrome_pid(child->host)) +
           ",\"tid\":" + std::to_string(child->lane) +
           ",\"ts\":" + std::to_string(child->ts_us) + "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

util::Status Registry::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return util::Status(util::Err::kNoEnt, "cannot open " + path);
  const std::string json = chrome_json();
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size())
    return util::Status(util::Err::kNoSpace, "short write to " + path);
  return util::Status::ok();
}

std::string Registry::metrics_report() const {
  util::Table t({"metric", "host", "value"});
  auto host_cell = [](sim::HostId h) {
    return h == sim::kInvalidHost ? std::string("-") : std::to_string(h);
  };
  for (const auto& [key, c] : counters_) {
    if (c.value() == 0) continue;  // keep the snapshot legible
    t.add_row({key.first, host_cell(key.second), std::to_string(c.value())});
  }
  for (const auto& [key, g] : gauges_)
    t.add_row({key.first, host_cell(key.second), util::Table::num(g.value())});
  for (const auto& [key, h] : histograms_) {
    if (h.count() == 0) continue;
    t.add_row({key.first, host_cell(key.second),
               "n=" + std::to_string(h.count()) +
                   " mean=" + util::Table::num(h.mean()) +
                   " sum=" + util::Table::num(h.sum())});
  }
  return t.to_string();
}

std::string Registry::metrics_json() const {
  std::string out;
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  auto key_fields = [&](const std::pair<std::string, sim::HostId>& key) {
    std::string s = "\"name\":\"";
    json_escape_into(s, key.first);
    s += "\",\"host\":" + std::to_string(static_cast<int>(key.second));
    return s;
  };

  out += "{\n\"counters\":[";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{" + key_fields(key) +
           ",\"value\":" + std::to_string(c.value()) + "}";
  }
  out += "\n],\n\"gauges\":[";
  first = true;
  for (const auto& [key, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{" + key_fields(key) + ",\"value\":" + num(g.value()) + "}";
  }
  out += "\n],\n\"histograms\":[";
  first = true;
  for (const auto& [key, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{" + key_fields(key) +
           ",\"count\":" + std::to_string(h.count()) +
           ",\"sum\":" + num(h.sum()) + ",\"bounds_ms\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) out += ',';
      out += num(h.bounds()[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(h.bucket(i));
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

util::Status Registry::write_metrics_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return util::Status(util::Err::kNoEnt, "cannot open " + path);
  const std::string json = metrics_json();
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size())
    return util::Status(util::Err::kNoSpace, "short write to " + path);
  return util::Status::ok();
}

}  // namespace sprite::trace
