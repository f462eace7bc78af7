#!/usr/bin/env python3
"""topraag benchmark: real CLI invocations, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one ``topraag.cli.main(argv)`` call in this process, with stdout
captured and ``--out`` written into a scratch directory under ``bench/``.
One pass runs the workload's job list once; passes repeat until the next
one would overrun ``--seconds`` (at least one always runs).  Every job's
exit code and output are checked against ``bench/pins.json``.  The seed is
passed as ``--seed`` to every ``verify`` job; the config inputs are fixed.

``--trace 0`` prints the end-to-end metrics, each a sum of the jobs' fastest
times in the run, scaled by a machine-speed gauge (README.md explains why);
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see ``tracing.py``), plus the tracing overhead,
and writes the spans to ``bench/_out/trace-<workload>.json``.  The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import Tracer, bfs_counters

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"

# The edgeless two-vertex graph is the only input that reaches TreeEngine;
# no file in configs/ does, so the benchmark writes it into its scratch dir.
TREE_GRAPH = {"vertices": ["s", "t"], "edges": []}

WORKLOADS = {
    "ball-automorphic": [
        "build --graph configs/k3.json --model configs/s3a3.json --radius 2",
        "build --graph configs/edge.json --model configs/s3a3.json --radius 3",
        "build --graph configs/c4.json --model configs/trivial.json --radius 3",
        "homology --graph configs/c4.json --model configs/s3a3.json --radius 2",
        "verify --suite stabilisers --graph configs/edge.json --model configs/s3a3.json --radius 2",
        "verify --suite intersections --graph configs/edge.json --model configs/s3a3.json --radius 2",
        "verify --suite nerve --graph configs/edge.json --model configs/s3a3.json --radius 3",
        "verify --suite normal-form --graph configs/c4.json --model configs/s3a3.json",
    ],
    "ball-shift": [
        "build --graph configs/edge.json --model configs/shift2.json --radius 5",
        "build --graph configs/point.json --model configs/shift2.json --radius 8",
        "build --graph {work}/st.json --model configs/shift2.json --radius 4",
        "homology --graph configs/path3.json --model configs/shift3.json --radius 3",
        "homology --graph configs/edge.json --model configs/shift2.json --radius 5",
        "verify --suite pockets --graph configs/path3.json --model configs/shift3.json --radius 3",
        "verify --suite links --graph configs/edge.json --model configs/shift2.json --radius 3",
        "verify --suite intersections --graph configs/edge.json --model configs/shift2.json --radius 3",
        "verify --suite nerve --graph configs/edge.json --model configs/shift2.json --radius 3",
    ],
    "valley": [
        "homology --graph configs/c4.json --valley 0 --window 4",
        "homology --graph configs/path3.json --valley 0 --window 4",
        "homology --graph configs/k3.json --valley 0 --window 4",
        "verify --suite valleys --graph configs/c4.json --window 3",
    ],
}
SETUP_REPEATS = 15
# About the gauge's fastest time on an unloaded 2-core x86-64 VM: scaled
# times read as seconds on a machine that runs the gauge that fast.
GAUGE_NOMINAL_S = 0.025


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- jobs ------------------------------------------------------------------------

def job_argv(job, work, seed):
    argv = job.format(work=work).split() + ["--out", str(Path(work) / "out.json")]
    if argv[0] == "verify":
        argv += ["--seed", str(seed)]
    return argv


def run_job(main, job, work, seed):
    """Run one CLI job; return (seconds, record, error).  ``record`` holds
    what is compared with the pins: exit code, output digest, key numbers."""
    argv = job_argv(job, work, seed)
    out = Path(work) / "out.json"
    if out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except (Exception, SystemExit):
        return time.perf_counter() - start, None, traceback.format_exc()
    seconds = time.perf_counter() - start
    try:
        record = summarise(argv[0], code, stdout.getvalue(), out, seed)
    except (OSError, ValueError, KeyError) as exc:
        return seconds, None, f"unreadable output: {exc!r}; stderr: {stderr.getvalue()}"
    return seconds, record, stderr.getvalue()


def summarise(kind, code, stdout, out, seed):
    data = out.read_bytes()
    if kind == "build":
        summary = json.loads(stdout)
        key = {"vertices": summary["vertices"], "cube_counts": summary["cube_counts"]}
        return {"exit": code, "digest": sha(data), "key": key}
    report = json.loads(data)
    if kind == "verify":
        # the one seed-dependent field; everything else is pinned
        if report.pop("seed") != seed:
            raise ValueError("verify report carries another seed")
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        key = {"pass": report["pass"], "meta": report["meta"]}
    elif "persistent_reduced_betti" in report:
        key = {
            "persistent": report["persistent_reduced_betti"],
            "per_radius": {r: h["degrees"] for r, h in report["per_radius"].items()},
        }
    else:
        key = report["homology"]["degrees"]
    return {"exit": code, "digest": sha(data), "key": key}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatch(job, record, pins):
    pin = pins.get(job)
    if pin is None:
        return "no pinned output"
    bad = [field for field in ("exit", "digest", "key") if record[field] != pin[field]]
    if bad:
        return "differs from pins in " + ", ".join(f"{f}: {record[f]!r} != {pin[f]!r}" for f in bad)
    return None


def gauge():
    """Seconds taken by fixed pure-Python work shaped like the program's inner
    loops: dict-of-dict integer row elimination and tuple words in a dict.

    Other tenants of a shared machine can slow it down for minutes, longer
    than a run.  Timed between jobs, the gauge slows down with the jobs, and
    dividing by its fastest time in the run removes that drift (README.md).
    """
    start = time.perf_counter()
    n = 400
    rows = {i: {(i * 7 + k * 13) % n: 1 if (i + k) % 3 else -1 for k in range(5)} for i in range(n)}
    for i in range(n):
        row = rows[i]
        if not row:
            continue
        j = min(row)
        pivot = row[j]
        for other in range(i + 1, min(n, i + 40)):
            target = rows[other]
            factor = target.get(j, 0) * pivot
            if factor:
                for col, v in row.items():
                    new = target.get(col, 0) - factor * v
                    if new:
                        target[col] = new
                    else:
                        target.pop(col, None)
    words = {}
    for i in range(8000):
        word = tuple(("abcd"[(i * k) % 4], 1 if (i + k) % 3 else -1) for k in range(8))
        words[tuple(sorted(set(word)))] = word
    return time.perf_counter() - start


class Pass:
    """Per-job seconds of one pass over a workload, its failures, and the
    gauge timed before each job and after the last."""

    def __init__(self):
        self.seconds = []  # (kind, seconds)
        self.gauges = []
        self.failed = 0
        self.build = 0.0

    @property
    def wall(self):
        return sum(s for _, s in self.seconds)



def fastest(passes, kind=None):
    """Sum over the jobs (of one command kind) of each job's fastest time in
    the run.  The jobs are deterministic and other tenants of the machine only
    ever slow them down, so the fastest time is the steadiest estimate."""
    picked = [j for j, (k, _) in enumerate(passes[0].seconds) if kind in (None, k)]
    return sum(min(p.seconds[j][1] for p in passes) for j in picked)


def run_pass(cli, jobs, work, seed, pins, tracer=None):
    gc.collect()
    p = Pass()
    for number, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = number
        p.gauges.append(gauge())
        seconds, record, error = run_job(cli.main, job, work, seed)
        p.seconds.append((job.split()[0], seconds))
        problem = error if record is None else mismatch(job, record, pins)
        if problem:
            p.failed += 1
            log(f"FAILED {job}: {problem}")
    p.gauges.append(gauge())
    return p


# -- set-up time ---------------------------------------------------------------------

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import topraag.cli as cli
for path in sys.argv[2].split(","):
    if path:
        cli.graph_from_json(path)
for path in sys.argv[3].split(","):
    if path:
        cli.model_from_json(path)
print(time.perf_counter() - start)
"""


def config_paths(jobs, work, flag):
    paths = []
    for job in jobs:
        words = job.format(work=work).split()
        if flag in words:
            path = words[words.index(flag) + 1]
            if path not in paths:
                paths.append(path)
    return paths


def measure_setup(jobs, work):
    """Fastest of several fresh processes doing ``import topraag.cli`` plus
    loading the workload's graphs and models (FiniteModel closes its groups
    on load), and the fastest gauge timed around them."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC),
            ",".join(config_paths(jobs, work, "--graph")), ",".join(config_paths(jobs, work, "--model"))]
    times, gauges = [], [gauge()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
        gauges.append(gauge())
    print("set-up seconds: " + json.dumps(times))
    return min(times), min(gauges)


# -- measurement loops -------------------------------------------------------------

def timed_loop(seconds, steps):
    """Run the steps in turn, round after round, until another round would
    overrun the budget; always at least one round."""
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append([step() for step in steps])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def untraced_pass(cli, jobs, work, seed, pins):
    """One plain pass.  A workload without ``build`` jobs (valley) times its
    complex construction, ``complexes.valley_cells``, as its build_s."""
    if any(job.startswith("build") for job in jobs):
        return run_pass(cli, jobs, work, seed, pins)
    timer = Tracer(only={"complexes.valley_cells"}).install()
    try:
        p = run_pass(cli, jobs, work, seed, pins)
    finally:
        timer.restore()
    p.build = timer.inclusive("complexes.valley_cells")
    return p


def traced_pass(cli, jobs, work, seed, pins, traces):
    tracer = Tracer().install()
    try:
        p = run_pass(cli, jobs, work, seed, pins, tracer)
    finally:
        tracer.restore()
    traces.append(tracer)
    return p


def end_to_end(passes, setup):
    """End-to-end metrics: the jobs' fastest times, scaled by GAUGE_NOMINAL_S
    over the gauge's fastest time in the run."""
    walls = [p.wall for p in passes]
    setup_s, setup_gauge = setup
    gauges = [g for p in passes for g in p.gauges]
    scale = GAUGE_NOMINAL_S / min(gauges)
    print("gauge seconds: " + json.dumps(gauges))
    print(f"unscaled: wall_s {fastest(passes):.6f} s, setup_s {setup_s:.6f} s "
          f"(fastest gauge {min(gauges):.6f} s over the passes, {setup_gauge:.6f} s over set-up)")
    print("per-pass job seconds: " + json.dumps([[s for _, s in p.seconds] for p in passes]))
    print(f"wall_s: {len(walls)} passes, median pass {statistics.median(walls):.4f} s, "
          f"slowest pass {max(walls):.4f} s; no percentile has ten samples beyond it at this count")
    return {
        "wall_s": (fastest(passes) * scale, "s"),
        # valley has no build jobs: its build_s is the valley_cells time
        "build_s": ((fastest(passes, "build") or min(p.build for p in passes)) * scale, "s"),
        "homology_s": (fastest(passes, "homology") * scale, "s"),
        "verify_s": (fastest(passes, "verify") * scale, "s"),
        "setup_s": (setup_s * GAUGE_NOMINAL_S / setup_gauge, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr: Tracer, wall):
    c = bfs_counters(tr.balls)
    calls, incl, self_t, layer = tr.calls, tr.inclusive, tr.self_time, tr.layer_self
    counts = {
        "graphs.order.calls": calls("graphs.order"),
        "graphs.adjacent.calls": calls("graphs.adjacent"),
        "graphs.cliques.calls": calls("graphs.cliques"),
        "words.normal_form.calls": calls("words.normal_form"),
        "words.normal_form.letters": tr.counters.get("words.normal_form.letters", 0),
        "words.multiply.calls": calls("words.multiply"),
        "models.mul.calls": calls("models.mul"),
        "models.decompose.calls": calls("models.decompose"),
        "models.phi.calls": calls("models.phi"),
        "elements.coset_rep.calls": calls("elements.coset_rep"),
        "elements.mul_token.calls": calls("elements.mul_token"),
        "elements.mul.calls": calls("elements.mul"),
        "elements.act_letter.calls": calls("elements.act_letter"),
        "semidirect.mul_token.calls": calls("semidirect.mul_token"),
        "semidirect.coset_rep.calls": calls("semidirect.coset_rep"),
        "britton.mul_token.calls": calls("britton.mul_token"),
        "complexes.vertices": c["vertices"],
        "complexes.cubes": c["cubes"],
        "complexes.bfs_probes": c["probes"],
        "complexes.attach_attempts": c["attempts"],
        "homology.smith_normal_form.calls": calls("homology.smith_normal_form"),
        "homology.snf.nnz": tr.counters.get("homology.snf.nnz", 0),
        "homology.snf.cells": tr.counters.get("homology.snf.cells", 0),
    }
    ratios = {
        "complexes.bfs_new_ratio": (c["vertices"] - len(tr.balls)) / c["probes"] if c["probes"] else 0.0,
        "complexes.attach_ratio": c["positive"] / c["attempts"] if c["attempts"] else 0.0,
    }
    seconds = {
        "graphs.self_s": layer("graphs"),
        "words.self_s": layer("words"),
        "models.self_s": layer("models"),
        "elements.self_s": layer("elements"),
        "semidirect.self_s": layer("semidirect"),
        "britton.self_s": layer("britton"),
        "complexes.self_s": layer("complexes"),
        "complexes.build_ball.s": incl("complexes.build_ball"),
        "complexes.build_ball.self_s": self_t("complexes.build_ball"),
        "complexes.valley_cells.self_s": self_t("complexes.valley_cells"),
        "complexes.detect_pockets.s": incl("complexes.detect_pockets"),
        "complexes.check_links.s": incl("complexes.check_links"),
        "complexes.stabiliser_bruteforce.s": incl("complexes.stabiliser_bruteforce"),
        "complexes.nerve_graph.s": incl("complexes.nerve_graph"),
        "complexes.brute_force_fixed_cells.s": incl("complexes.brute_force_fixed_cells"),
        "complexes.export_ball.s": incl("complexes.export_ball"),
        "homology.self_s": layer("homology"),
        "homology.chain_complex.s": incl("homology.chain_complex"),
        "homology.dd_check.s": incl("homology.dd_check"),
        "homology.smith_normal_form.s": incl("homology.smith_normal_form"),
        "homology.persistent_reduced_betti.s": incl("homology.persistent_reduced_betti"),
        "verification.run_suite.self_s": layer("verification"),
        "cli.config_load_s": incl("cli.config_load"),
        "cli.emit_s": incl("cli.emit"),
        "trace.wall_s": wall,
    }
    out = {name: (v, "count") for name, v in counts.items()}
    out.update({name: (v, "ratio") for name, v in ratios.items()})
    out.update({name: (v, "s") for name, v in seconds.items()})
    return out


def write_spans(workload, seed, traces):
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "passes": [
            {"spans": tr.spans, "stats": {name: st[:3] for name, st in tr.stats.items()}, "counters": tr.counters}
            for tr in traces
        ],
    }
    path = out_dir / f"trace-{workload}.json"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


# -- entry point -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "topraag" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        log(f"no topraag checkout around {BENCH}: need src/topraag and configs/")
        return 2
    sys.path.insert(0, str(SRC))
    import topraag.cli as cli

    os.chdir(ROOT)
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    jobs = WORKLOADS[args.workload]
    (BENCH / "_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work")
    try:
        (Path(work) / "st.json").write_text(json.dumps(TREE_GRAPH), encoding="utf-8")
        plain = lambda: untraced_pass(cli, jobs, work, args.seed, pins)  # noqa: E731
        if args.trace:
            traces = []
            rounds = timed_loop(args.seconds, [plain, lambda: traced_pass(cli, jobs, work, args.seed, pins, traces)])
            plain_wall = statistics.median(r[0].wall for r in rounds)
            per_pass = [per_layer(tr, r[1].wall) for tr, r in zip(traces, rounds)]
            metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                       for name, (_, unit) in per_pass[0].items()}
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - plain_wall, "s")
            log(f"spans written to {write_spans(args.workload, args.seed, traces)}")
            passes = [p for r in rounds for p in r]
        else:
            setup = measure_setup(jobs, work)
            passes = [r[0] for r in timed_loop(args.seconds, [plain])]
            metrics = end_to_end(passes, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(passes) * len(jobs)
    failed = sum(p.failed for p in passes)
    if not args.trace:
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
