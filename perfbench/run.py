#!/usr/bin/env python3
"""The gouruin benchmark: one closed-loop client, pinned seeded workloads.

    python3 perfbench/run.py --workload check_atoms --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (``src/gouruin`` must exist) and
imports the package from ``src``.  A run:

1. times fresh-interpreter set-ups (``probe.py``) for ``setup_s``;
2. builds the workload's ops from ``--seed``;
3. repeats passes over the ops, one op at a time, until ``--seconds`` have
   passed (at least one pass), then checks every output against its oracle.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced; the last line carries the per-layer metrics (per pass) and the
tracing overhead, and the spans go to ``.bench_out/``.  The line before the
last is a full report: environment, every end-to-end metric with its unit
and base, per-op-group latencies and every oracle failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: One worker and single-threaded BLAS: the benchmark measures one client.
PINNED_ENV = {
    "GOU_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Fresh-interpreter set-ups timed per run, after one untimed warm-up that
#: also writes the bytecode caches.
SETUP_PROBES = {"full": 3, "tiny": 1}
PROBE_TIMEOUT_S = 120

#: Host-speed calibration.  On a shared 2-vCPU VM the CPU throughput a
#: run gets swings by up to 2x within seconds and by about 1.5x for minutes
#: at a time.  ``calibrate`` times a fixed mix of interpreter and small-numpy
#: work between ops (after every CALIB_EVERY_S of op time) and in each set-up
#: probe, after its timed line.  Every gated timing is divided by
#: (calibration time / CALIB_REF_S), so it reads as seconds on a host that
#: runs the loop in CALIB_REF_S.  The raw timings stay in the report.
CALIB_REF_S = 0.008
CALIB_EVERY_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="check_atoms | check_density | mc_grid | mc_events")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke test")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up probes (fresh interpreters)
# ---------------------------------------------------------------------------


def _timed_probe(cmd: list) -> tuple[float, str, str]:
    """(seconds from process start to the first stdout line, that line, the rest)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"probe {cmd[1:]} failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed, line, rest


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter and numpy work."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += (i % 7) * 0.5
    a = np.arange(20_000, dtype=float)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def measure_setup(args, with_scipy: bool) -> dict:
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")),
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    count = SETUP_PROBES[args.size]
    if args.size == "full":
        _timed_probe(probe)
    walls, speeds, parts = [], [], []
    for _ in range(count):
        wall, line, rest = _timed_probe(probe)
        speeds.append(json.loads(rest)["calib_s"] / CALIB_REF_S)
        walls.append(wall)
        parts.append(json.loads(line))
    out = {"setup_s": statistics.median(w / s for w, s in zip(walls, speeds)),
           "setup_raw_s": statistics.median(walls), "probes": count, "setup_raw_s_all": walls,
           "host_slowdown_all": speeds}
    for key in ("import_gouruin_s", "inputs_s"):
        out[key] = statistics.median(p[key] for p in parts)
    if with_scipy:
        code = ("import time; t = time.perf_counter(); import scipy.integrate; "
                "print(time.perf_counter() - t, flush=True)")
        out["import_scipy_integrate_s"] = statistics.median(
            float(_timed_probe([sys.executable, "-c", code])[1]) for _ in range(count))
    return out


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


def run_passes(ops, budget_s: float, tracer=None) -> list:
    """Closed loop: repeat passes over ``ops`` until ``budget_s`` has passed.

    A pass's wall and CPU times are sums over its ops, so the calibration
    runs between ops stay outside them.  Outputs are checked after each
    pass, outside the timed region.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < budget_s:
        ctx, lat, errors, cpu = {}, [], {}, 0.0
        calib = [calibrate()]
        since = 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.name)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                ctx[op.name] = op.run(ctx)
            except Exception:  # a failed op is counted, and the pass goes on
                errors[op.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            lat.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
            if tracer is not None:
                tracer.end_op()
            since += lat[-1]
            if since >= CALIB_EVERY_S:
                calib.append(calibrate())
                since = 0.0
        passes.append({"wall": sum(lat), "cpu": cpu, "lat": lat,
                       "slowdown": statistics.median(calib) / CALIB_REF_S,
                       "outcomes": [check_op(op, ctx, errors) for op in ops]})
    return passes


def check_op(op, ctx, errors):
    import workloads

    if op.name in errors:
        return workloads.Outcome([f"raised {errors[op.name]}"])
    try:
        return op.check(ctx[op.name], ctx)
    except Exception:  # an oracle that cannot read the output fails the op
        return workloads.Outcome([f"oracle raised {traceback.format_exc(limit=2).strip().splitlines()[-1]}"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _tail(samples_ms: list) -> dict:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(samples_ms)
    ordered = sorted(samples_ms)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (1.0 - p / 100.0))
        if beyond >= 10:
            return {"value": ordered[n - beyond - 1], "unit": "ms", "percentile": p,
                    "samples": n, "beyond": beyond}
    return {"value": None, "unit": "ms", "samples": n,
            "note": "fewer than 11 samples; no percentile has ten beyond it"}


def summarize(wl, passes, checked, setup: dict, known: dict) -> tuple[dict, dict]:
    """(end-to-end metrics for the last line, the full report).

    Timings come from ``passes`` (untraced); failures are counted over every
    pass in ``checked``.
    """
    ops = wl.ops
    slow = [p["slowdown"] for p in passes]
    walls = [p["wall"] for p in passes]
    wall_s = statistics.median(w / s for w, s in zip(walls, slow))
    cpu_s = statistics.median(p["cpu"] / s for p, s in zip(passes, slow))
    lat_ms = [1e3 * t / s for p, s in zip(passes, slow) for t in p["lat"]]
    attempted = len(ops) * len(checked)
    failures, known_fails, undetermined = [], {}, 0
    for p in checked:
        for op, o in zip(ops, p["outcomes"]):
            undetermined += o.undetermined
            if o.problems:
                if op.name in known:
                    known_fails[op.name] = known_fails.get(op.name, 0) + 1
                else:
                    failures.append({"op": op.name, "problems": o.problems[:3]})
    failed_all = len(failures) + sum(known_fails.values())

    e2e = {
        "setup_s": setup["setup_s"],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops_per_s": len(ops) / wall_s,
        "op_p50_ms": statistics.median(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    raw = {"setup_s": setup["setup_raw_s"],
           "wall_s": statistics.median(walls),
           "cpu_s": statistics.median(p["cpu"] for p in passes),
           "op_p50_ms": 1e3 * statistics.median(t for p in passes for t in p["lat"])}
    raw["ops_per_s"] = len(ops) / raw["wall_s"]
    for k, v in raw.items():
        metrics[k]["raw"] = v
    metrics["fail_frac"] = {"value": failed_all / attempted, "unit": "1", "failed": failed_all,
                            "attempted": attempted,
                            "known_defect_fails": known_fails}
    metrics["undetermined_frac"] = {"value": undetermined / attempted, "unit": "1",
                                    "undetermined": undetermined, "attempted": attempted}
    if any(op.streams for op in ops):
        paths = sum(op.simulated_paths for op in ops)
        metrics["paths_per_s"] = {"value": paths / wall_s, "unit": "1/s",
                                  "paths_per_pass": paths}
        ttp = 0.0
        for i, op in enumerate(ops):
            hw = passes[0]["outcomes"][i].halfwidth
            if hw is not None:
                op_s = statistics.median(p["lat"][i] / p["slowdown"] for p in passes)
                ttp += op_s * (hw / 0.01) ** 2
        metrics["time_to_1pct_s"] = {"value": ttp, "unit": "s",
                                     "note": "sum over estimator ops of op wall x "
                                             "(Wilson 95% half-width / 0.01)^2"}
    else:
        metrics["op_tail_ms"] = _tail(lat_ms)

    groups: dict = {}
    for i, op in enumerate(ops):
        g = groups.setdefault(op.name.split("#")[0], {"ops": 0, "lat": []})
        g["ops"] += 1
        g["lat"] += [p["lat"][i] / p["slowdown"] for p in passes]
    report = {
        "metrics": metrics,
        "passes": len(passes),
        "pass_wall_raw_s": walls,
        "host_slowdown": slow,
        "setup": setup,
        "op_groups": {k: {"ops_per_pass": g["ops"], "p50_ms": 1e3 * statistics.median(g["lat"]),
                          "total_s_per_pass": sum(g["lat"]) / len(passes)}
                      for k, g in groups.items()},
        "failures": failures[:50],
        "attempted": attempted,
        "unexpected_failures": len(failures),
    }
    return e2e, report


def layer_metrics(tracer, wl, traced, untraced, setup) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, plus the tracing overhead."""
    import tracing

    n = len(traced)
    totals = tracer.layer_totals()
    out = {"setup.import_gouruin_s": setup["import_gouruin_s"],
           "setup.import_scipy_integrate_s": setup["import_scipy_integrate_s"]}
    for name in tracing.SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s / n
    out.update(tracer.count_metrics(n))
    untraced_wall = statistics.median(p["wall"] / p["slowdown"] for p in untraced)
    traced_wall = statistics.median(p["wall"] / p["slowdown"] for p in traced)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.spans"] = (len(tracer.spans) - len(tracer.ops)) / n

    # Self-check of the rebinding: every estimator op opens one path_rng
    # stream per path and random stream.
    rng_calls = tracer.calls_per_op("simulate.path_rng")
    mismatches = []
    for k, name in enumerate(tracer.ops):
        op = wl.ops[k % len(wl.ops)]
        if op.streams and rng_calls[k] != op.simulated_paths:
            mismatches.append({"op": name, "path_rng_calls": rng_calls[k],
                               "paths_x_streams": op.simulated_paths})
    out["trace.path_rng_mismatches"] = len(mismatches)
    return out, {"path_rng_mismatches": mismatches[:20]}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gouruin").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, wl) -> dict:
    import numpy
    import scipy

    from gouruin.estimate import worker_count

    return {
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "GOU_THREADS": os.environ.get("GOU_THREADS"),
        "workers": worker_count(),
        "clients": 1,
        "loop": "closed",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": wl.params,
        "ops_per_pass": len(wl.ops),
        "input_digest": wl.input_digest,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gouruin" / "__init__.py").is_file():
        print(f"error: {SRC / 'gouruin'} not found; run from a gouruin source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import warnings

    # Overflow in the non-finite driver and region-boundary notes on the
    # density tier are expected; the oracles judge the outputs.
    warnings.simplefilter("ignore")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    setup = measure_setup(args, with_scipy=bool(args.trace))
    wl = workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
    env = environment(args, wl)
    known = {k: v for k, v in workloads.KNOWN_DEFECTS.items()
             if any(op.name == k for op in wl.ops)}

    if not args.trace:
        passes = run_passes(wl.ops, args.seconds)
        e2e, report = summarize(wl, passes, passes, setup, known)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        import tracing

        untraced = run_passes(wl.ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            traced = run_passes(wl.ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        values, extra = layer_metrics(tracer, wl, traced, untraced, setup)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
        _, report = summarize(wl, untraced, untraced + traced, setup, known)
        report.update(extra)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))

    report["environment"] = env
    report["known_defects"] = known
    failed = report["unexpected_failures"]
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_units() -> dict:
    import tracing

    units = {"setup.import_gouruin_s": "s", "setup.import_scipy_integrate_s": "s",
             "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
             "trace.overhead_s": "s", "trace.overhead_frac": "1", "trace.spans": "count",
             "trace.path_rng_mismatches": "count"}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(tracing.COUNTS)
    return units


if __name__ == "__main__":
    sys.exit(main())
