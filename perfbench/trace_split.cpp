// Span store for the traced run: harvests obs::Tracer once per generation
// (so no per-thread ring wraps), measures worker idle from the per-thread
// tracks, and writes every span out when the benchmark ends.
#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "json/json.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {
const vmc::json::JsonValue& field(const vmc::json::JsonValue& event,
                                  std::string_view key) {
  const vmc::json::JsonValue* v = event.find(key);
  if (v == nullptr) {
    throw std::runtime_error("tracer event without \"" + std::string(key) +
                             "\"");
  }
  return *v;
}
}  // namespace

std::uint64_t SpanLog::add(const char* name, double t0_s, double t1_s,
                           std::uint64_t parent, const std::string& run) {
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, "perfbench", kBenchTid, t0_s * 1e6,
                        (t1_s - t0_s) * 1e6, id, parent, run});
  return id;
}

void SpanLog::finish(std::uint64_t id, double t1_s) {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->dur_us = t1_s * 1e6 - it->ts_us;
      return;
    }
  }
  throw std::logic_error("SpanLog::finish: unknown span id");
}

Harvest SpanLog::harvest(vmc::obs::Tracer& tracer, std::uint64_t parent,
                         const std::string& run, int n_threads) {
  Harvest h;
  h.dropped = tracer.dropped();
  const vmc::json::JsonValue doc = vmc::json::json_parse(tracer.chrome_json());
  tracer.clear();

  // Busy extent [first start, last end] of the transport spans per track.
  std::unordered_map<int, std::pair<double, double>> extent;
  const vmc::json::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("tracer export has no traceEvents array");
  }
  for (const vmc::json::JsonValue& e : events->array) {
    const vmc::json::JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    Span s;
    s.name = field(e, "name").string;
    s.cat = field(e, "cat").string;
    s.tid = static_cast<int>(field(e, "tid").number);
    s.ts_us = field(e, "ts").number;
    s.dur_us = field(e, "dur").number;
    s.id = next_id_++;
    s.parent = parent;
    s.run = run;
    if (s.cat == "core" || s.cat == "event") {
      const auto [it, fresh] =
          extent.try_emplace(s.tid, s.ts_us, s.ts_us + s.dur_us);
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.ts_us);
        it->second.second = std::max(it->second.second, s.ts_us + s.dur_us);
      }
    }
    spans_.push_back(std::move(s));
  }

  if (!extent.empty()) {
    double lo = extent.begin()->second.first;
    double hi = extent.begin()->second.second;
    for (const auto& [tid, ext] : extent) {
      lo = std::min(lo, ext.first);
      hi = std::max(hi, ext.second);
    }
    const double region_s = (hi - lo) * 1e-6;
    const int workers = std::max(n_threads, static_cast<int>(extent.size()));
    h.region_thread_s = region_s * workers;
    double busy_s = 0.0;
    for (const auto& [tid, ext] : extent) {
      busy_s += (ext.second - ext.first) * 1e-6;
    }
    h.idle_thread_s = h.region_thread_s - busy_s;
  }
  return h;
}

void SpanLog::write(const std::string& path) const {
  vmc::json::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.member("name", s.name);
    w.member("cat", s.cat);
    w.member("ph", "X");
    w.member("ts", s.ts_us);
    w.member("dur", s.dur_us);
    w.member("pid", vmc::obs::Tracer::kHostPid);
    w.member("tid", s.tid);
    w.key("args").begin_object();
    w.member("id", s.id);
    w.member("parent", s.parent);
    w.member("run", s.run);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.member("displayTimeUnit", "ms");
  w.end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str();
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

}  // namespace perfbench
