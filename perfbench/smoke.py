#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --size tiny`` untraced on two seeds and
traced on one, and checks that:

* the last line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with every ``end_to_end`` (untraced) or ``per_layer``
  (traced) metric of ``BENCHMARK.json`` and its unit, and nothing else;
* the untraced report line has every end-to-end metric the workload
  defines, with its unit; ``fail_frac`` counts every op and, beyond the
  known defects, no failure;
* another seed changes the inputs but not the metric names;
* the traced run's ``path_rng`` calls equal paths x streams for every
  estimator op;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "2"

REPORT_METRICS = {
    "check": ("setup_s", "wall_s", "cpu_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
              "peak_rss_mb", "fail_frac", "undetermined_frac"),
    "mc": ("setup_s", "wall_s", "cpu_s", "ops_per_s", "paths_per_s", "op_p50_ms",
           "peak_rss_mb", "fail_frac", "undetermined_frac", "time_to_1pct_s"),
}


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                             "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, seed: int, trace: int, problems: list) -> dict:
    proc = run(ROOT, workload, seed, trace)
    where = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    last, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last-line keys {sorted(last)}")
    if not last["correct"] or last["failed"]:
        problems.append(f"{where}: unexpected failures {report['failures'][:3]}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
                        f"units {[k for k in got if k in wanted and got[k] != wanted[k]]}")
    for k, v in last["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{where}: {k} is {v['value']!r}")

    metrics = report["metrics"]
    if not trace:
        for name in REPORT_METRICS["check" if workload.startswith("check") else "mc"]:
            if name not in metrics or not metrics[name].get("unit") or metrics[name]["value"] is None:
                problems.append(f"{where}: report lacks {name} with a unit and a value")
    ff = metrics["fail_frac"]
    known = sum(ff["known_defect_fails"].values())
    if ff["failed"] != known or ff["attempted"] != last["attempted"]:
        problems.append(f"{where}: fail_frac base {ff} does not match {last['attempted']} ops")
    if trace and report.get("path_rng_mismatches"):
        problems.append(f"{where}: path_rng self-check {report['path_rng_mismatches'][:3]}")
    if trace and not (ROOT / report["trace_file"]).is_file():
        problems.append(f"{where}: no span file")
    return {"names": sorted(last["metrics"]), "digest": report["environment"]["input_digest"]}


def check_bare_directory(problems: list) -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "check_atoms", 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        a = check_run(workload, 1, 0, problems)
        b = check_run(workload, 2, 0, problems)
        check_run(workload, 1, 1, problems)
        if a and b and (a["digest"] == b["digest"] or a["names"] != b["names"]):
            problems.append(f"{workload}: seeds 1 and 2 give digests {a['digest']}, {b['digest']} "
                            "and must differ in inputs only")
        print(f"{workload}: done", file=sys.stderr)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
