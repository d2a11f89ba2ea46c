// Shared declarations of the end-to-end eigenvalue benchmark harness
// (perfbench/e2e.cpp). Everything here observes VectorMC from outside,
// through its public headers and existing switches.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// The benchmark's own clock (monotonic seconds).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A measured value with its unit, keyed by metric name.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// STREAM triad a[i] = b[i] + s * c[i] over three arrays of `n` doubles,
/// split statically over `threads` threads (each thread first-touches its
/// own slice). Returns the best of `passes` timed passes in GB/s, counting
/// 24 bytes per element as STREAM does.
double triad_gbps(std::size_t n, int threads, int passes);

/// One span of the benchmark's trace. Program spans come from obs::Tracer;
/// benchmark spans (setup steps, generations, mode runs) are added here.
struct Span {
  std::string name;
  std::string cat;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string run;           // shared by every span of one benchmark run
};

/// What one harvest of the program tracer yielded.
struct Harvest {
  double idle_thread_s = 0.0;    // worker time outside its busy extent
  double region_thread_s = 0.0;  // n_threads x parallel-region length
  std::uint64_t dropped = 0;     // ring-wrap losses reported by the tracer
};

/// In-memory span store, written out once when the benchmark ends.
class SpanLog {
 public:
  /// Benchmark-side track id (the tracer numbers its own tracks from 1).
  static constexpr int kBenchTid = 0;

  /// Record a benchmark span [t0_s, t1_s] (tracer clock); returns its id.
  std::uint64_t add(const char* name, double t0_s, double t1_s,
                    std::uint64_t parent, const std::string& run);

  /// Set the end of span `id` (one opened by add() before its end was known).
  void finish(std::uint64_t id, double t1_s);

  /// Move every event out of `tracer` into this log (parented to `parent`,
  /// tagged with `run`), then clear the tracer so its per-thread rings
  /// never wrap. Worker idle is measured from the transport spans' per-track
  /// extents: idle = region - extent on each of `n_threads` workers.
  Harvest harvest(vmc::obs::Tracer& tracer, std::uint64_t parent,
                  const std::string& run, int n_threads);

  /// Chrome trace_event JSON; span id, parent and run id go in "args".
  void write(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
