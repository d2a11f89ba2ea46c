// End-to-end eigenvalue benchmark harness: whole k-eigenvalue calculations
// (hm::build_model -> core::Simulation::run) in history and event mode, run
// back to back in one process and timed by the benchmark's own clock.
//
//   perfbench_e2e --model small --particles 20000 --threads 1
//                 --inactive 1 --active 1 --seed 7 --seconds 20 --trace 0
//
// --trace 0 measures set-up and rates with all instrumentation off.
// --trace 1 additionally runs each mode with the program's own prof timers
// and tracer switched on, splits the traced wall time by layer, probes
// memory bandwidth, and writes the spans to --trace-out.
//
// Prints one JSON document (raw per-run samples and per-round layer
// metrics) as the last line of stdout; perfbench/run.py turns it into
// medians, applies the correctness gate and prints the result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/eigenvalue.hpp"
#include "core/mesh_tally.hpp"
#include "hm/hm_model.hpp"
#include "json/json.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "prof/profiler.hpp"
#include "simd/dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vmc;
using perfbench::Metric;
using perfbench::MetricMap;
using perfbench::now_s;

// Fixed across workloads: the grid scale vmc_run uses by default and the mesh
// tally's equal-lethargy group count.
constexpr double kGridScale = 0.3;
constexpr int kMeshGroups = 32;

struct Args {
  std::string model = "small";  // small | large (H.M. fuel size)
  std::uint64_t particles = 1000;
  int threads = 1;
  int inactive = 1;
  int active = 1;
  int mesh = 0;  // radial mesh cells per side over the source box; 0 = none
  std::uint64_t seed = 1;
  double seconds = 1.0;
  int min_pairs = 3;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_e2e: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--model") a.model = v;
    else if (flag == "--particles") a.particles = std::stoull(v);
    else if (flag == "--threads") a.threads = std::stoi(v);
    else if (flag == "--inactive") a.inactive = std::stoi(v);
    else if (flag == "--active") a.active = std::stoi(v);
    else if (flag == "--mesh") a.mesh = std::stoi(v);
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--min-pairs") a.min_pairs = std::stoi(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--trace-out") a.trace_out = v;
    else usage("unknown flag " + flag);
  }
  if (a.model != "small" && a.model != "large") usage("--model small|large");
  if (a.particles == 0 || a.threads < 1 || a.inactive < 0 || a.active < 1 ||
      a.min_pairs < 1 || a.mesh < 0) {
    usage("invalid workload configuration");
  }
  return a;
}

constexpr std::array<core::TransportMode, 2> kModes = {
    core::TransportMode::history, core::TransportMode::event};

const char* mode_name(core::TransportMode m) {
  return m == core::TransportMode::history ? "history" : "event";
}

/// Everything a workload's calculations need. Heap-held: the simulations
/// keep references into `model`, and the traced simulations' callback keeps
/// a pointer to `on_generation`.
struct Workload {
  std::unique_ptr<hm::Model> model;
  std::unique_ptr<core::MeshTally> mesh;
  std::array<std::unique_ptr<core::Simulation>, 2> sim;     // untraced
  std::array<std::unique_ptr<core::Simulation>, 2> traced;  // --trace 1
  std::function<void(const core::GenerationResult&, int)> on_generation;
};

core::Settings settings_for(const Args& a, const Workload& w,
                            core::TransportMode mode, bool profile) {
  core::Settings st;
  st.n_particles = a.particles;
  st.n_inactive = a.inactive;
  st.n_active = a.active;
  st.seed = a.seed;
  st.n_threads = a.threads;
  st.mode = mode;
  st.mesh_tally = w.mesh.get();
  st.source_lo = w.model->source_lo;
  st.source_hi = w.model->source_hi;
  // Survival biasing stays off: only the history tracker honours it, so the
  // two modes would run different physics.
  st.tracker.survival_biasing = false;
  st.tracker.profile = profile;
  st.event.profile = profile;
  return st;
}

struct SetupTimes {
  double build_s = 0.0;
  double ctor_s = 0.0;
  double source_s = 0.0;
  double total_s() const { return build_s + ctor_s + source_s; }
};

/// hm::build_model + the Simulation constructors + initial_source: the
/// benchmark's set-up. With a span log, each step is also recorded as a span.
std::unique_ptr<Workload> set_up(const Args& a, SetupTimes& t,
                                 perfbench::SpanLog* log,
                                 const std::string& run) {
  obs::Tracer& tr = obs::tracer();
  auto w = std::make_unique<Workload>();
  hm::ModelOptions mo;
  mo.fuel = a.model == "large" ? hm::FuelSize::large : hm::FuelSize::small;
  mo.grid_scale = kGridScale;

  const double t0 = now_s();
  const double s0 = tr.now_s();
  w->model = std::make_unique<hm::Model>(hm::build_model(mo));
  const double t1 = now_s();
  const double s1 = tr.now_s();
  if (a.mesh > 0) {
    core::MeshTally::Spec spec;
    spec.lower = w->model->source_lo;
    spec.upper = w->model->source_hi;
    spec.nx = spec.ny = a.mesh;
    spec.nz = 1;
    spec.group_edges = core::log_group_edges(1e-11, 20.0, kMeshGroups);
    w->mesh = std::make_unique<core::MeshTally>(spec);
  }
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    w->sim[m] = std::make_unique<core::Simulation>(
        w->model->geometry, w->model->library,
        settings_for(a, *w, kModes[m], false));
    if (a.trace) {
      core::Settings st = settings_for(a, *w, kModes[m], true);
      st.on_generation = [hook = &w->on_generation](
                             const core::GenerationResult& g, int gen) {
        if (*hook) (*hook)(g, gen);
      };
      w->traced[m] = std::make_unique<core::Simulation>(
          w->model->geometry, w->model->library, st);
    }
  }
  const double t2 = now_s();
  const double s2 = tr.now_s();
  const std::vector<particle::FissionSite> src = w->sim[0]->initial_source();
  const double t3 = now_s();
  const double s3 = tr.now_s();
  if (src.size() != a.particles) throw std::runtime_error("short source");

  t.build_s = t1 - t0;
  t.ctor_s = t2 - t1;
  t.source_s = t3 - t2;
  if (log != nullptr) {
    const std::uint64_t root = log->add("setup", s0, s3, 0, run);
    log->add("hm.build_model", s0, s1, root, run);
    log->add("core.Simulation", s1, s2, root, run);
    log->add("core.initial_source", s2, s3, root, run);
  }
  return w;
}

/// One calculation in one mode, timed by the benchmark's clock.
struct ModeRun {
  core::TransportMode mode = core::TransportMode::history;
  bool traced = false;
  bool warmup = false;
  int pair = -1;  // measured pair index; -1 for warm-up runs
  double wall_s = 0.0;
  core::RunResult result;
  std::string error;
  std::uint64_t mesh_scored = 0;
  std::uint64_t mesh_dropped = 0;
};

ModeRun run_mode(Workload& w, std::size_t m, bool traced) {
  ModeRun r;
  r.mode = kModes[m];
  r.traced = traced;
  if (w.mesh) w.mesh->reset();
  core::Simulation& sim = traced ? *w.traced[m] : *w.sim[m];
  const double t0 = now_s();
  try {
    r.result = sim.run();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_s = now_s() - t0;
  if (w.mesh) {
    r.mesh_scored = w.mesh->scored();
    r.mesh_dropped = w.mesh->dropped();
  }
  return r;
}

double sum_gen_seconds(const core::RunResult& r) {
  double s = 0.0;
  for (const auto& g : r.generations) s += g.seconds;
  return s;
}

void write_run(json::JsonWriter& w, const ModeRun& r, std::uint64_t particles) {
  w.begin_object();
  w.member("mode", mode_name(r.mode));
  w.member("traced", r.traced);
  w.member("warmup", r.warmup);
  w.member("pair", r.pair);
  w.member("wall_s", r.wall_s);
  w.member("particles", particles);
  if (r.error.empty()) {
    w.key("error").null();
  } else {
    w.member("error", r.error);
  }
  const core::RunResult& res = r.result;
  w.member("gen_seconds", sum_gen_seconds(res));
  w.member("rate_active", res.rate_active);
  w.member("rate_inactive", res.rate_inactive);
  w.member("k_eff", res.k_eff);
  w.member("k_std", res.k_std);
  w.key("k_history").begin_array();
  for (const double k : res.k_collision_history) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", k);  // exact: compared bit for bit
    w.value(buf);
  }
  w.end_array();
  w.key("sites").begin_array();
  for (const auto& g : res.generations) w.value(std::uint64_t{g.n_sites});
  w.end_array();
  const core::EventCounts& c = res.counts_total;
  w.member("histories", c.histories);
  w.member("lookups", c.lookups);
  w.member("nuclide_terms", c.nuclide_terms);
  w.member("collisions", c.collisions);
  w.member("crossings", c.crossings);
  w.member("mesh_scored", r.mesh_scored);
  w.member("mesh_dropped", r.mesh_dropped);
  w.end_object();
}

void write_metrics(json::JsonWriter& w, const MetricMap& m) {
  w.begin_object();
  for (const auto& [name, metric] : m) {
    w.key(name).begin_object();
    w.member("value", metric.value);
    w.member("unit", metric.unit);
    w.end_object();
  }
  w.end_object();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Computed (not measured) bytes one nuclide term of a union-grid lookup
/// reads: its index-map entry, the two bracketing grid energies, and four
/// reaction channels at both grid points.
constexpr std::size_t kBytesPerTerm =
    sizeof(decltype(xs::Library::UnionGrid::imap)::value_type) +
    2 * sizeof(decltype(xs::Library::Flat::energy)::value_type) +
    4 * 2 * sizeof(decltype(xs::Library::Flat::total)::value_type);

double library_mb(const xs::Library& lib) {
  const xs::Library::Flat& f = lib.flat();
  const auto bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  const std::size_t flat = bytes(f.energy) + bytes(f.energy_f) +
                           bytes(f.total) + bytes(f.scatter) +
                           bytes(f.absorption) + bytes(f.fission) +
                           bytes(f.offset) + bytes(f.grid_size);
  return static_cast<double>(lib.union_bytes() + lib.pointwise_bytes() +
                             lib.hash_bytes() + flat) /
         1e6;
}

/// Layer timers of each mode (prof names as registered by the trackers).
struct LayerTimers {
  std::vector<const char*> lookup, geom, collide, distance;
};
LayerTimers layer_timers(core::TransportMode m) {
  if (m == core::TransportMode::history) {
    return {{"calculate_xs"},
            {"distance_to_boundary", "cross_surface"},
            {"collide"},
            {}};
  }
  return {{"calculate_xs_banked"},
          {"advance_geometry"},
          {"collide"},
          {"sample_distance_banked"}};
}

double self_seconds(const prof::Profile& p,
                    const std::vector<const char*>& names) {
  double s = 0.0;
  for (const char* n : names) {
    const auto it = p.timers.find(n);
    if (it != p.timers.end()) s += it->second.exclusive_s;
  }
  return s;
}

std::uint64_t timer_calls(const prof::Profile& p, const char* name) {
  const auto it = p.timers.find(name);
  return it == p.timers.end() ? 0 : it->second.calls;
}

/// The traced run of one mode: program instrumentation on, tracer exported
/// and cleared at every generation boundary, layer self time from the prof
/// registry. `plain` is the adjacent untraced run of the same mode.
MetricMap traced_layers(const Args& a, Workload& w, std::size_t m,
                        const ModeRun& plain, double triad_same_threads,
                        perfbench::SpanLog& log, const std::string& run,
                        ModeRun& traced_out) {
  obs::Tracer& tr = obs::tracer();
  const std::string p = std::string(mode_name(kModes[m])) + ".";
  prof::registry().reset();
  tr.clear();

  const double run_t0 = tr.now_s();
  const std::uint64_t root = log.add("run", run_t0, run_t0, 0, run);
  double boundary = run_t0;
  double export_s = 0.0;
  perfbench::Harvest total;
  const auto fold = [&total](const perfbench::Harvest& h) {
    total.idle_thread_s += h.idle_thread_s;
    total.region_thread_s += h.region_thread_s;
    total.dropped += h.dropped;
  };
  w.on_generation = [&](const core::GenerationResult&, int) {
    const double t = tr.now_s();
    const std::uint64_t gid = log.add("generation", boundary, t, root, run);
    fold(log.harvest(tr, gid, run, a.threads));
    boundary = tr.now_s();
    export_s += boundary - t;
  };
  tr.set_enabled(true);
  traced_out = run_mode(w, m, true);
  tr.set_enabled(false);
  w.on_generation = nullptr;
  fold(log.harvest(tr, root, run, a.threads));  // anything after the last gen
  log.finish(root, tr.now_s());

  const prof::Profile prof = prof::registry().snapshot(run);
  const core::RunResult& r = traced_out.result;
  const core::EventCounts& c = r.counts_total;
  const double threads = a.threads;
  const double wall = traced_out.wall_s - export_s;
  const double gen_s = sum_gen_seconds(r);
  const LayerTimers lt = layer_timers(kModes[m]);
  const double lookup_s = self_seconds(prof, lt.lookup) / threads;
  const double geom_s = self_seconds(prof, lt.geom) / threads;
  const double collide_s = self_seconds(prof, lt.collide) / threads;
  const double distance_s = self_seconds(prof, lt.distance) / threads;
  const double histories = static_cast<double>(c.histories);
  const double lookups = static_cast<double>(c.lookups);
  const double gbps = ratio(static_cast<double>(c.nuclide_terms) *
                                static_cast<double>(kBytesPerTerm),
                            lookup_s) /
                      1e9;

  MetricMap out;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    out[p + name] = Metric{v, unit};
  };
  put("xsdata.lookup_s", lookup_s, "s");
  put("xsdata.lookup_share", ratio(lookup_s, wall), "fraction");
  put("xsdata.lookups_per_particle", ratio(lookups, histories), "count");
  put("xsdata.terms_per_lookup",
      ratio(static_cast<double>(c.nuclide_terms), lookups), "count");
  put("xsdata.lookup_gbps", gbps, "GB/s");
  put("xsdata.roofline_frac", ratio(gbps, triad_same_threads), "fraction");
  put("geom.s", geom_s, "s");
  put("geom.share", ratio(geom_s, wall), "fraction");
  put("geom.crossings_per_particle",
      ratio(static_cast<double>(c.crossings), histories), "count");
  put("physics.collide_s", collide_s, "s");
  put("physics.collisions_per_particle",
      ratio(static_cast<double>(c.collisions), histories), "count");
  if (kModes[m] == core::TransportMode::event) {
    put("core.distance_s", distance_s, "s");
    put("core.bank_per_sweep",
        ratio(lookups, static_cast<double>(
                           timer_calls(prof, "calculate_xs_banked"))),
        "count");
  }
  put("core.untimed_s",
      gen_s - (lookup_s + geom_s + collide_s + distance_s), "s");
  put("core.thread_idle_frac",
      ratio(total.idle_thread_s, total.region_thread_s), "fraction");
  // From the untraced run: wall around run() minus the generations' own
  // clocks, i.e. resample_bank and bookkeeping between generations.
  const core::RunResult& pr = plain.result;
  put("core.between_gen_s", plain.wall_s - sum_gen_seconds(pr), "s");
  put("core.rate_active", pr.rate_active, "particles/s");
  put("core.rate_inactive", pr.rate_inactive, "particles/s");
  put("core.mesh_cost_frac",
      pr.rate_inactive > 0.0 ? 1.0 - pr.rate_active / pr.rate_inactive : 0.0,
      "fraction");
  put("core.mesh_scored", static_cast<double>(plain.mesh_scored), "count");
  put("core.mesh_dropped", static_cast<double>(plain.mesh_dropped), "count");
  put("obs.trace_overhead", 1.0 - ratio(plain.wall_s, wall), "fraction");
  put("obs.dropped_events", static_cast<double>(total.dropped), "count");
  return out;
}

std::size_t cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

/// Last-level cache size; 32 MiB when the host does not report one.
std::size_t llc_bytes() {
  if (const std::size_t l3 = cache_bytes(_SC_LEVEL3_CACHE_SIZE)) return l3;
  if (const std::size_t l2 = cache_bytes(_SC_LEVEL2_CACHE_SIZE)) return l2;
  return std::size_t{32} << 20;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

int run_benchmark(const Args& a) {
  const simd::DispatchInfo isa = simd::dispatch();
  const std::uint64_t per_run = a.particles *
                                static_cast<std::uint64_t>(a.inactive + a.active);
  const std::string run_prefix = "s" + std::to_string(a.seed);
  perfbench::SpanLog log;

  // --- set-up: one before the warm-up pair and one before every measured
  // pair, so that setup_s (their median) samples the host over the whole run
  // like the rates do, not over the first seconds only ----------------------
  std::vector<SetupTimes> setups;
  std::unique_ptr<Workload> w;
  const auto fresh_set_up = [&] {
    w.reset();  // never hold two libraries at once
    SetupTimes t;
    w = set_up(a, t, a.trace ? &log : nullptr,
               run_prefix + "-setup" + std::to_string(setups.size()));
    setups.push_back(t);
  };
  fresh_set_up();

  // --- memory roof (traced process only: it needs >1 GB) ------------------
  const std::size_t triad_n = 4 * llc_bytes() / sizeof(double);
  MetricMap workload_metrics;
  double triad_same = 0.0;
  if (a.trace) {
    std::vector<int> counts = {1, 4};
    if (a.threads != 1 && a.threads != 4) counts.push_back(a.threads);
    for (const int t : counts) {
      const double g = perfbench::triad_gbps(triad_n, t, 5);
      if (t == a.threads) triad_same = g;
      if (t == 1 || t == 4) {
        workload_metrics["mem.triad_gbps_" + std::to_string(t) + "t"] =
            Metric{g, "GB/s"};
      }
    }
    workload_metrics["xsdata.library_mb"] =
        Metric{library_mb(w->model->library), "MB"};
  }

  // --- warm-up pair (gated, not timed), then the measured loop: a fresh
  // set-up, then adjacent history/event runs with alternating order ---------
  std::vector<ModeRun> runs;
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    runs.push_back(run_mode(*w, m, false));
    runs.back().warmup = true;
  }
  std::vector<MetricMap> rounds;
  // Stop at the pair boundary nearest to --seconds (at least --min-pairs).
  const double t_start = now_s();
  double last_pair_s = 0.0;
  for (int pair = 0;; ++pair) {
    const double t_pair = now_s();
    if (pair >= a.min_pairs && t_pair - t_start + 0.5 * last_pair_s > a.seconds)
      break;
    fresh_set_up();
    for (int k = 0; k < 2; ++k) {
      const std::size_t m = static_cast<std::size_t>((pair + k) % 2);
      runs.push_back(run_mode(*w, m, false));
      runs.back().pair = pair;
      if (!a.trace) continue;
      ModeRun traced;
      const std::string run = run_prefix + "-" + mode_name(kModes[m]) +
                              std::to_string(pair);
      MetricMap layers =
          traced_layers(a, *w, m, runs.back(), triad_same, log, run, traced);
      traced.pair = pair;
      runs.push_back(std::move(traced));
      if (rounds.size() <= static_cast<std::size_t>(pair)) rounds.emplace_back();
      rounds.back().merge(layers);
    }
    last_pair_s = now_s() - t_pair;
  }
  const double measured_s = now_s() - t_start;
  if (a.trace) {
    std::vector<double> build, source;
    for (const SetupTimes& t : setups) {
      build.push_back(t.build_s);
      source.push_back(t.source_s);
    }
    workload_metrics["hm.build_s"] = Metric{median(build), "s"};
    workload_metrics["core.source_s"] = Metric{median(source), "s"};
  }

  if (a.trace && !a.trace_out.empty()) log.write(a.trace_out);

  json::JsonWriter out;
  out.begin_object();
  out.key("provenance").begin_object();
  out.member("isa", isa.name);
  out.member("simd_bits", isa.simd_bits);
  out.member("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  out.member("l1d_bytes", std::uint64_t{cache_bytes(_SC_LEVEL1_DCACHE_SIZE)});
  out.member("l2_bytes", std::uint64_t{cache_bytes(_SC_LEVEL2_CACHE_SIZE)});
  out.member("llc_bytes", std::uint64_t{llc_bytes()});
  out.member("triad_array_bytes",
             std::uint64_t{a.trace ? triad_n * sizeof(double) : 0});
  out.member("build_type", PERFBENCH_BUILD_TYPE);
  out.member("model", a.model);
  out.member("grid_scale", kGridScale);
  out.member("particles", a.particles);
  out.member("threads", a.threads);
  out.member("inactive", a.inactive);
  out.member("active", a.active);
  out.member("mesh", a.mesh);
  out.member("groups", kMeshGroups);
  out.member("setups", std::uint64_t{setups.size()});
  out.member("seed", a.seed);
  out.member("library_mb", library_mb(w->model->library));
  out.member("bytes_per_term", std::uint64_t{kBytesPerTerm});
  out.member("spans", std::uint64_t{log.size()});
  out.end_object();
  out.key("setups").begin_array();
  for (const SetupTimes& t : setups) {
    out.begin_object();
    out.member("build_s", t.build_s);
    out.member("ctor_s", t.ctor_s);
    out.member("source_s", t.source_s);
    out.member("total_s", t.total_s());
    out.end_object();
  }
  out.end_array();
  out.key("runs").begin_array();
  for (const ModeRun& r : runs) write_run(out, r, per_run);
  out.end_array();
  out.member("measured_s", measured_s);
  out.member("peak_rss_mb", peak_rss_mb());
  out.key("workload_metrics");
  write_metrics(out, workload_metrics);
  out.key("rounds").begin_array();
  for (const MetricMap& r : rounds) write_metrics(out, r);
  out.end_array();
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
