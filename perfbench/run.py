#!/usr/bin/env python3
"""End-to-end eigenvalue benchmark for VectorMC.

Runs whole k-eigenvalue calculations (hm::build_model -> Simulation::run) on
one named workload in both transport modes, back to back in one process, and
prints every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload small-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload, both traces
    python3 perfbench/run.py --self-check                           # tiny scale, checks metric names/units

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
all instrumentation off; --trace 1 reports its per-layer metrics from a
separate traced run (its spans overwrite <build dir>/perfbench-traces/<workload>.json).

The harness (perfbench/e2e.cpp) is built from source on first use into
$CARGO_TARGET_DIR (default .bench_build). Workload configurations and the
correctness bands live in perfbench/workloads.json.

Exit codes: 0 all runs correct; 1 a correctness check failed (the JSON line is
still printed, with "correct": false); 2 the benchmark could not run (no
result is printed).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_BUDGET_S = 170  # a run must end within 180 s
SELF_CHECK = "tiny"     # the workload --self-check runs
# malloc backs its blocks with transparent huge pages (madvise), serves every
# block from its heap rather than from separate mappings, and never hands
# freed memory back to the kernel.
MALLOC_TUNABLES = ("glibc.malloc.hugetlb=1:glibc.malloc.mmap_max=0:"
                   "glibc.malloc.trim_threshold=18446744073709551615")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build_harness():
    """Configure (once) and build the harness; returns the binary path."""
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=880).returncode
            except subprocess.TimeoutExpired as e:
                raise BenchError(f"build step timed out: {' '.join(cmd)}") from e
            if rc != 0:
                out.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build step failed: {' '.join(cmd)}\n{tail}")
    return os.path.join(bdir, "perfbench_e2e")


def workload_seed(master, name):
    """The calculation seed: a pure function of the master seed and workload."""
    digest = hashlib.sha256(f"{name}:{master}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def harness_env():
    """The harness's environment, with MALLOC_TUNABLES. On a VM, the time to
    touch fresh memory swings with how and when the hypervisor backs guest
    pages. With these settings a set-up after the first reuses pages the
    process already holds, and huge pages keep the strided index-map writes
    and the lookups off 4 KiB page walks."""
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), MALLOC_TUNABLES) if t)
    return env


def run_harness(binary, name, cfg, seed, seconds, trace, deadline):
    trace_dir = os.path.join(build_root(), "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--model", cfg["model"],
           "--particles", str(cfg["particles"]),
           "--threads", str(cfg["threads"]),
           "--inactive", str(cfg["inactive"]), "--active", str(cfg["active"]),
           "--mesh", str(cfg["mesh"]),
           "--seed", str(workload_seed(seed, name)),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--min-pairs", "1" if trace else "3",
           "--trace-out", os.path.join(trace_dir, f"{name}.json")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to run the harness")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env=harness_env())
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"harness exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed nothing")
    raw_dir = os.path.join(build_root(), "perfbench-raw")
    os.makedirs(raw_dir, exist_ok=True)
    with open(os.path.join(raw_dir, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as f:
        f.write(lines[-1])
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"harness output is not JSON: {e}") from e


# --- correctness gate -------------------------------------------------------

def gate(cfg, doc):
    """Mark each mode-run failed (r["fail"] = reasons) or passed."""
    bands = cfg["bands"]
    gens = cfg["inactive"] + cfg["active"]
    dropped = {}
    for i, rnd in enumerate(doc["rounds"]):
        for mode in ("history", "event"):
            m = rnd.get(f"{mode}.obs.dropped_events")
            if m is not None:
                dropped[(i, mode)] = m["value"]
    first_history = {}
    for r in doc["runs"]:
        fail = []
        if r["error"] is not None:
            fail.append(f"threw: {r['error']}")
        else:
            lo, hi = bands["k_eff"]
            if not lo <= r["k_eff"] <= hi:
                fail.append(f"k_eff {r['k_eff']:.5f} outside [{lo}, {hi}]")
            if len(r["sites"]) != gens or min(r["sites"]) == 0:
                fail.append(f"a generation banked no fission sites: {r['sites']}")
            hist = r["histories"]
            for key, count in (("lookups_per_particle", r["lookups"]),
                               ("collisions_per_particle", r["collisions"]),
                               ("crossings_per_particle", r["crossings"])):
                lo, hi = bands[key]
                v = count / hist if hist else 0.0
                if not lo <= v <= hi:
                    fail.append(f"{key} {v:.3f} outside [{lo}, {hi}]")
            if cfg["bit_identical"]:
                ref = first_history.setdefault(r["mode"], r["k_history"])
                if r["k_history"] != ref:
                    fail.append("k history differs from this mode's first run "
                                "with the same seed")
            if r["traced"] and dropped.get((r["pair"], r["mode"]), 0) != 0:
                fail.append("tracer dropped events")
        r["fail"] = fail
    return doc["runs"]


# --- metrics ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def end_to_end(doc, lines):
    runs = [r for r in doc["runs"]
            if not r["warmup"] and not r["traced"] and r["error"] is None]
    rate = {"history": [], "event": []}
    by_pair = {}
    for r in runs:
        rate[r["mode"]].append(r["particles"] / r["wall_s"])
        by_pair.setdefault(r["pair"], {})[r["mode"]] = r
    speedup = [p["history"]["wall_s"] / p["event"]["wall_s"]
               for p in by_pair.values() if len(p) == 2]
    if not rate["history"] or not rate["event"] or not speedup:
        raise BenchError("no complete history/event pair was measured")
    setup = [s["total_s"] for s in doc["setups"]]
    m = {}
    for mode in ("history", "event"):
        m[f"{mode}.rate"] = (statistics.median(rate[mode]), "particles/s")
        prog_a = [r["rate_active"] for r in runs if r["mode"] == mode]
        prog_i = [r["rate_inactive"] for r in runs if r["mode"] == mode]
        gap = [r["wall_s"] - r["gen_seconds"] for r in runs if r["mode"] == mode]
        lines.append(f"{mode}.rate {m[f'{mode}.rate'][0]:.6g} particles/s "
                     f"({summary(rate[mode])}); program's own rate: active "
                     f"{statistics.median(prog_a):.6g}, inactive "
                     f"{statistics.median(prog_i):.6g} particles/s; "
                     f"run() wall outside generations {statistics.median(gap):.4g} s")
    m["event_speedup"] = (statistics.median(speedup), "ratio")
    lines.append(f"event_speedup {m['event_speedup'][0]:.6g} ratio "
                 f"({summary(speedup)}, adjacent pairs)")
    m["setup_s"] = (statistics.median(setup), "s")
    lines.append(f"setup_s {m['setup_s'][0]:.6g} s ({summary(setup)})")
    m["peak_rss_mb"] = (doc["peak_rss_mb"], "MB")
    lines.append(f"peak_rss_mb {doc['peak_rss_mb']:.6g} MB")
    return m


def per_layer(doc, lines):
    m = {name: (v["value"], v["unit"])
         for name, v in doc["workload_metrics"].items()}
    names = sorted({n for rnd in doc["rounds"] for n in rnd})
    for name in names:
        values = [rnd[name]["value"] for rnd in doc["rounds"] if name in rnd]
        unit = next(rnd[name]["unit"] for rnd in doc["rounds"] if name in rnd)
        m[name] = (statistics.median(values), unit)
    for name in sorted(m):
        value, unit = m[name]
        lines.append(f"{name} {value:.6g} {unit}")
    return m


def check_names(metrics, declared):
    """Every declared metric is emitted with its declared unit."""
    problems = []
    for d in declared:
        got = metrics.get(d["name"])
        if got is None:
            problems.append(f"{d['name']}: not emitted")
        elif got[1] != d["unit"]:
            problems.append(f"{d['name']}: unit {got[1]!r}, declared {d['unit']!r}")
    if problems:
        raise BenchError("metrics do not match BENCHMARK.json:\n  " +
                         "\n  ".join(problems))


def run_workload(binary, bench, workloads, name, seed, seconds, trace, deadline):
    """One run of one workload; returns (result object, printable lines)."""
    if name not in workloads:
        raise BenchError(f"unknown workload {name!r}; known: "
                         f"{', '.join(sorted(workloads))}")
    cfg = workloads[name]
    doc = run_harness(binary, name, cfg, seed, seconds, trace, deadline)
    p = doc["provenance"]
    lines = [
        f"workload {name} (trace {int(trace)}): {cfg['why']}",
        f"provenance: isa={p['isa']} ({p['simd_bits']}-bit) nproc={p['nproc']} "
        f"caches l1d={p['l1d_bytes'] // 1024} KiB l2={p['l2_bytes'] // 1024} KiB "
        f"llc={p['llc_bytes'] / 1e6:.1f} MB build={p['build_type']} "
        f"master_seed={seed} calc_seed={p['seed']} model={p['model']} "
        f"grid_scale={p['grid_scale']} particles={p['particles']} "
        f"threads={p['threads']} generations={p['inactive']}+{p['active']} "
        f"mesh={p['mesh']}x{p['mesh']}x{p['groups']} "
        f"setups={p['setups']} library={p['library_mb']:.1f} MB "
        f"GLIBC_TUNABLES={harness_env()['GLIBC_TUNABLES']}; "
        f"results compare only within one ISA",
    ]
    if trace:
        lines.append(f"memory probe: STREAM triad, 3 arrays of "
                     f"{p['triad_array_bytes'] / 1e6:.0f} MB each "
                     f"(>= 4 x {p['llc_bytes'] / 1e6:.1f} MB LLC); lookup "
                     f"bytes are computed ({p['bytes_per_term']} B per nuclide "
                     f"term), not measured; {p['spans']} spans written")
    runs = gate(cfg, doc)
    failed = [r for r in runs if r["fail"]]
    for r in failed:
        lines.append(f"FAILED {r['mode']} run (pair {r['pair']}, traced "
                     f"{r['traced']}): {'; '.join(r['fail'])}")
    metrics = per_layer(doc, lines) if trace else end_to_end(doc, lines)
    lines.append(f"fail_frac {len(failed) / len(runs):.6g} fraction "
                 f"({len(failed)} of {len(runs)} mode-runs failed)")
    declared = bench["per_layer" if trace else "end_to_end"]
    check_names(metrics, declared)
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {d["name"]: {"value": metrics[d["name"]][0],
                                "unit": d["unit"]} for d in declared},
    }
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run the tiny workload with both traces and check "
                         "that every BENCHMARK.json metric is emitted")
    args = ap.parse_args()
    deadline = time.monotonic() + HARNESS_BUDGET_S

    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        workloads = load_json(os.path.join(HERE, "workloads.json"))
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        binary = build_harness()
        # The first run in a checkout builds; the measurement gets its own budget.
        deadline = max(deadline, time.monotonic() + HARNESS_BUDGET_S)
        if args.self_check:
            jobs = [(SELF_CHECK, 0), (SELF_CHECK, 1)]
            seconds = 1.0
        elif args.workload == "all":
            jobs = [(name, t) for name in workloads if name != SELF_CHECK
                    for t in (0, 1)]
            deadline = float("inf")
        elif args.workload:
            jobs = [(args.workload, args.trace)]
        else:
            raise BenchError("--workload or --self-check is required")
        results = {}
        for name, trace in jobs:
            result, lines = run_workload(binary, bench, workloads, name,
                                         args.seed, seconds, trace, deadline)
            print("\n".join(lines), flush=True)
            results[f"{name}/trace{trace}"] = result
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    correct = all(r["correct"] for r in results.values())
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        if args.self_check:
            print("self-check: every BENCHMARK.json metric emitted with its "
                  "unit" + ("" if correct else "; correctness checks FAILED"))
        print(json.dumps({"correct": correct, "results": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
