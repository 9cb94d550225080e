#!/usr/bin/env python3
"""The repository benchmark: host speed of the simulator on two workloads,
with every simulated point checked for correctness.

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 55 --trace 0

Run it from the repository root. It builds perfbench/ (the simulator
libraries plus perfbench_runner) into .bench_build/perfbench, generates the
workload's inputs from --seed, runs the workload in one runner process on
one host worker thread for about --seconds, checks every point, and prints
a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host time scaled to
reference speed, tracing off); with --trace 1 they are the per-layer ones,
from a run that adds one traced pass and the host-cost probes. README.md describes the workloads and
metrics; benchlib.py holds the arithmetic.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

WORKLOADS = ("paper-eval", "serve-sweep")
WORKERS = 1  # every workload runs its points one after another
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TYPE = "Release"
RUNNER_TIMEOUT_S = 170
REQUIRED = ("BENCHMARK.json", "src/CMakeLists.txt", "campaigns/paper.json",
            "perfbench/CMakeLists.txt")
SPAN_CHILDREN = ("runtime.build", "apps.setup", "runtime.run",
                 "apps.finish", "apps.verify")

# Exact sums of SimStats over the workload's points: (metric, path).
COUNTERS = (
    ("core.l1_hits", ("ops", "l1_hits")),
    ("core.l1_misses", ("ops", "l1_misses")),
    ("core.l2_misses", ("ops", "l2_misses")),
    ("core.l3_misses", ("ops", "l3_misses")),
    ("core.lines_wb", ("ops", "lines_written_back")),
    ("core.lines_inv", ("ops", "lines_invalidated")),
    ("core.wb_ops", ("ops", "wb_ops")),
    ("core.inv_ops", ("ops", "inv_ops")),
    ("core.meb_wbs", ("ops", "meb_wbs")),
    ("core.meb_overflows", ("ops", "meb_overflows")),
    ("core.ieb_refreshes", ("ops", "ieb_refreshes")),
    ("mem.stale_reads", ("ops", "stale_word_reads")),
    ("noc.flits_linefill", ("traffic_flits", "linefill")),
    ("noc.flits_writeback", ("traffic_flits", "writeback")),
    ("noc.flits_inval", ("traffic_flits", "invalidation")),
    ("noc.flits_memory", ("traffic_flits", "memory")),
    ("noc.flits_sync", ("traffic_flits", "sync")),
    ("sync.barriers", ("ops", "anno_barriers")),
    ("sync.critical", ("ops", "anno_critical")),
    ("sync.lock_wait_cyc", ("stalls", "lock_stall")),
    ("sync.barrier_wait_cyc", ("stalls", "barrier_stall")),
    ("sim.wb_stall_cyc", ("stalls", "wb_stall")),
    ("sim.inv_stall_cyc", ("stalls", "inv_stall")),
    ("sim.cycles", ("exec_cycles",)),
    ("hierarchy.dir_invals", ("ops", "dir_invalidations_sent")),
    ("apps.req_completed", ("ops", "req_completed")),
)


class BenchError(Exception):
    """The benchmark could not run (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------------ build

def build(root):
    """Configures (once) and builds perfbench/ into BUILD_DIR; returns the
    build directory. Build output goes to stderr."""
    bdir = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", bdir, "-j", str(min(4, nproc()))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return bdir


def cmake_cache(bdir, key):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


# --------------------------------------------------------------- workload

def write_plan(bdir, workload, seed, seconds, trace):
    """Writes the runner's plan: the campaign spec the workload expands and
    the run budget. Only values drawn from `seed` reach the program."""
    tag = f"{workload}-seed{seed}"
    if workload == "paper-eval":
        spec = "campaigns/paper.json"  # the paper's inputs: seed unused
    else:
        spec = os.path.join(bdir, f"spec-{tag}.json")
        with open(spec, "w") as f:
            json.dump(benchlib.serve_spec(seed), f, indent=1)
    plan = {
        "spec": spec,
        "seconds": float(seconds),
        "trace_out": os.path.join(bdir, f"trace-{tag}.json") if trace else "",
    }
    path = os.path.join(bdir, f"plan-{tag}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(plan, f, indent=1)
    return path, plan


def run_runner(root, bdir, plan_path):
    try:
        proc = subprocess.run(
            [os.path.join(bdir, "perfbench_runner"), plan_path], cwd=root,
            stdout=subprocess.PIPE, text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"runner did not finish in {RUNNER_TIMEOUT_S} s "
                         "(a point hung?)") from e
    if proc.returncode != 0:
        raise BenchError(f"runner exited with {proc.returncode}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------- analysis

def check_points(passes):
    """Per-point failures: an error in any run, or simulated stats that
    differ between runs. Returns {point index: reason}."""
    failures = {}
    first = passes[0]["points"]
    for p in passes:
        for i, pt in enumerate(p["points"]):
            if pt["error"]:
                failures.setdefault(i, pt["error"])
            elif pt["sim_hash"] != first[i]["sim_hash"]:
                failures.setdefault(i, "simulated stats differ between runs")
    return failures


def counter(stats, path):
    total = 0
    for s in stats:
        if s is None:
            continue
        v = s
        for k in path:
            v = v[k]
        total += v
    return total


PHASES = ("build_s", "setup_s", "run_s", "finish_s", "verify_s", "point_s")


def at_reference_speed(p):
    """The pass's host times scaled to reference speed (benchlib's
    speed_factors): each point's phases by the reference samples around
    it, and the rest of the pass (expansion, aggregation) by the pass's."""
    per_point, whole = benchlib.speed_factors(p["ref_s"], p["order"])
    points = [{k: pt[k] * f for k in PHASES}
              for pt, f in zip(p["points"], per_point)]
    outside = p["wall_s"] - sum(pt["point_s"] for pt in p["points"])
    return {
        "points": points,
        "wall_s": sum(pt["point_s"] for pt in points) + outside * whole,
        "expand_s": p["expand_s"] * whole,
    }


def pass_run_s(p):
    return sum(pt["run_s"] for pt in p["points"])


def pass_setup_s(p):
    return p["expand_s"] + sum(pt["build_s"] + pt["setup_s"]
                               for pt in p["points"])


def end_to_end(out):
    """End-to-end metrics from the untraced passes, plus the extras printed
    beside them: {name: value}, tail percentile, sample count.

    Every host time is scaled to reference speed, and each metric is the
    median over the run's passes (for a point, the median of its runs): on
    a shared host the same work runs up to 1.9 times slower from one minute
    to the next, and the reference loop between points slows with it.
    """
    untraced = [p for p in out["passes"] if not p["traced"]]
    scaled = [at_reference_speed(p) for p in untraced]
    stats = out["stats"]
    cycles = counter(stats, ("exec_cycles",))
    requests = counter(stats, ("ops", "req_completed"))
    samples = [statistics.median(p["points"][i]["point_s"] for p in scaled)
               * 1e3 for i in range(len(scaled[0]["points"]))]
    tail_p, nsamples, tail_ms = benchlib.tail(samples)
    m = {
        "wall_s": statistics.median(p["wall_s"] for p in scaled),
        "sim_cps": statistics.median(cycles / pass_run_s(p) for p in scaled),
        "setup_s": statistics.median(pass_setup_s(p) for p in scaled),
        # The first pass is one run of the workload, as a user runs it; the
        # heap keeps growing over repeated passes, so later passes would
        # make the peak depend on how many passes fit in the run.
        "peak_rss_mb": untraced[0]["peak_rss_mb"],
        "point_p50_ms": benchlib.nearest_rank(samples, 50),
        "point_tail_ms": tail_ms,
        "req_per_s": statistics.median(requests / pass_run_s(p)
                                       for p in scaled),
    }
    return m, tail_p, nsamples


def host_speed(out):
    """(median reference-loop seconds, median raw pass seconds) of the
    untraced passes: how fast the host ran, printed beside the metrics."""
    untraced = [p for p in out["passes"] if not p["traced"]]
    return (statistics.median(r for p in untraced for r in p["ref_s"]),
            statistics.median(p["wall_s"] for p in untraced))


def trace_layers(out, trace_path, problems):
    """Per-layer host time from the traced pass's spans, with the checks
    that the spans reconcile with the measured times."""
    with open(trace_path) as f:
        spans = json.load(f)["traceEvents"]
    selfs = benchlib.self_times(spans)
    self_s = {}
    for s, own in zip(spans, selfs):
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own / 1e6
    plain, traced = out["passes"][0], out["passes"][1]
    plain_wall = at_reference_speed(plain)["wall_s"]
    traced_wall = at_reference_speed(traced)["wall_s"]

    # Each point: one exp.point span equal to the point's measured time,
    # with its phase spans inside it.
    point_spans = {s["args"]["point"]: s for s in spans
                   if s["name"] == "exp.point"}
    uncovered = 0.0
    for i, pt in enumerate(traced["points"]):
        s = point_spans.get(i)
        if s is None or abs(s["dur"] / 1e6 - pt["point_s"]) > 2e-6:
            problems.append(f"point {i}: span does not match its measured time")
            continue
        uncovered += selfs[spans.index(s)] / 1e6
    total_point_s = sum(pt["point_s"] for pt in traced["points"])
    kids = sum(1 for s in spans if s["name"] in SPAN_CHILDREN)
    if kids != len(SPAN_CHILDREN) * len(traced["points"]):
        problems.append(f"{kids} phase spans for {len(traced['points'])} "
                        "points")
    if traced["sim_digest"] != plain["sim_digest"]:
        problems.append("traced and untraced runs differ in sim_digest")

    loads_stores = (counter(out["stats"], ("ops", "loads")) +
                    counter(out["stats"], ("ops", "stores")))
    run_s = sum(pt["run_s"] for pt in traced["points"])
    return {
        "exp.expand_s": self_s.get("exp.expand", 0.0),
        "exp.aggregate_s": self_s.get("exp.aggregate", 0.0),
        "runtime.build_s": self_s.get("runtime.build", 0.0),
        "apps.setup_s": self_s.get("apps.setup", 0.0),
        "runtime.run_s": self_s.get("runtime.run", 0.0),
        "apps.finish_s": self_s.get("apps.finish", 0.0),
        "apps.verify_s": self_s.get("apps.verify", 0.0),
        "runtime.ns_per_memop": run_s * 1e9 / max(1, loads_stores),
        "trace.uncovered_pct": 100 * uncovered / total_point_s,
        "trace.overhead_pct": 100 * (traced_wall - plain_wall) / plain_wall,
    }


def per_layer(out, e2e, trace_path, problems):
    stats = out["stats"]
    m = {name: counter(stats, path) for name, path in COUNTERS}
    hits, misses = m["core.l1_hits"], m["core.l1_misses"]
    m["core.l1_hit_ratio"] = hits / max(1, hits + misses)
    fits = m["core.meb_wbs"]
    m["core.meb_fit_ratio"] = fits / max(1, fits + m["core.meb_overflows"])
    m.update(out["probes"])
    m.update(trace_layers(out, trace_path, problems))
    m["req_per_s"] = e2e["req_per_s"]
    return m


# -------------------------------------------------------------- provenance

def source_digest(root):
    """sha256 over the simulator's sources and campaign specs, identifying
    the code measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "campaigns", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(root, bdir, build_info, load_start):
    build_type = cmake_cache(bdir, "CMAKE_BUILD_TYPE")
    flags = cmake_cache(bdir, "CMAKE_CXX_FLAGS")
    flagged = (build_type == "Debug" or not build_info["optimized"] or
               build_info["sanitized"] or "-fsanitize" in flags)
    return {
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "build_type": build_type,
        "debug_or_sanitizer": flagged,
        "compiler": build_info["compiler"],
        "nproc": nproc(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "workers": WORKERS,
    }


# -------------------------------------------------------------------- main

def listed_metrics(root, trace):
    """[(name, unit)] of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return [(m["name"], m["unit"])
            for m in doc["per_layer" if trace else "end_to_end"]]


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        log(f"perfbench: run from the repository root; missing {missing}")
        return 2
    try:
        benchlib.check_workers(WORKERS, nproc())
    except ValueError as e:
        log(f"perfbench: {e}")
        return 2
    load_start = list(os.getloadavg())

    try:
        bdir = build(root)
        plan_path, plan = write_plan(bdir, args.workload, args.seed,
                                     args.seconds, args.trace)
        out = run_runner(root, bdir, plan_path)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    passes = out["passes"]
    failures = check_points(passes)
    problems = [f"aggregate: {p['aggregate_error']}" for p in passes
                if p["aggregate_error"]]
    npoints = len(passes[0]["points"])
    if len({p["sim_digest"] for p in passes}) != 1 and not failures:
        problems.append("sim_digest differs between passes")

    e2e, tail_p, nsamples = end_to_end(out)
    paper = None
    if args.workload == "paper-eval" and not problems and not failures:
        aggs = {a["kind"]: a["text"] for a in out["aggregates"]}
        try:
            paper = benchlib.paper_errors(aggs)
        except (KeyError, ValueError, IndexError) as e:
            problems.append(f"paper reference: cannot read aggregates ({e})")

    computed = (per_layer(out, e2e, plan["trace_out"], problems)
                if args.trace else e2e)
    listed = listed_metrics(root, args.trace)
    unlisted = [name for name, _ in listed if name not in computed]
    if unlisted:
        log(f"perfbench: BENCHMARK.json lists unmeasured metrics {unlisted}")
        return 1
    prov = provenance(root, bdir, out["build"], load_start)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes of {npoints} points on {WORKERS} worker")
    for name, unit in listed:
        extra = ""
        if name == "point_p50_ms":
            extra = f"  (p50 of {nsamples} points)"
        elif name == "point_tail_ms":
            extra = f"  (p{tail_p} of {nsamples} points)"
        print(f"  {name:<24} {fmt(computed[name])} {unit}{extra}")
    if not args.trace and args.workload != "paper-eval":
        print(f"  {'req_per_s':<24} {fmt(e2e['req_per_s'])} 1/s")
    ref_s, raw_wall_s = host_speed(out)
    print(f"  {'host speed':<24} reference loop {ref_s * 1e3:.4g} ms, "
          f"{benchlib.REFERENCE_S * 1e3:g} ms at reference speed; unscaled "
          f"median pass {raw_wall_s:.6g} s")
    if paper is not None:
        rows, per_figure, mean_pct = paper
        figs = ", ".join(f"{f} {v:.2f}" for f, v in per_figure.items())
        print(f"  {'paper_err_pct':<24} {mean_pct:.4f} %  ({figs}; "
              "reference: the paper's SESC model, not hardware)")
        for figure, label, value, ref, err in rows:
            print(f"    {figure:<6} {label:<18} {value:>9.3f} vs {ref:>7.3f}"
                  f"  {err:6.2f} %")
    print(f"  {'sim_digest':<24} {passes[0]['sim_digest']}")
    print(f"  {'operations':<24} {npoints} attempted, {len(failures)} failed")
    for i, why in sorted(failures.items()):
        pt = passes[0]["points"][i]
        print(f"    FAILED {pt['app']}/{pt['config']} ({pt['group']}): "
              f"{why.splitlines()[0] if why else why}")
    for p in problems:
        print(f"    CHECK FAILED: {p}")
    if prov["debug_or_sanitizer"]:
        print("  WARNING: debug or sanitizer build; host times are not "
              "comparable")
    print(f"  {'provenance':<24} {json.dumps(prov)}")

    result = {
        "correct": not failures and not problems,
        "attempted": npoints,
        "failed": len(failures),
        "metrics": {name: {"value": computed[name], "unit": unit}
                    for name, unit in listed},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, provenance=prov,
                  reference_loop_s=ref_s, unscaled_pass_s=raw_wall_s,
                  sim_digest=passes[0]["sim_digest"],
                  paper=paper and {"rows": paper[0], "mean_pct": paper[2]})
    with open(os.path.join(bdir, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
