"""Command-line front end.

Subcommands:

* ``check``     exact no-ruin decision for a process spec (JSON report)
* ``simulate``  sample paths to CSV files plus a manifest
* ``estimate``  Monte Carlo estimators: ruin | negprob | zinf | theorem3
* ``validate``  run the acceptance suite (exact | mc | all)

Exit codes: 0 = decision/pass, 1 = input error, 2 = undetermined or refused.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path as FsPath

from . import acceptance
from .classify import DecisionKind, no_ruin_threshold
from .errors import GouError, InvalidModelError, NotApplicableError, UndeterminedError
from .estimate import (
    _check_inputs,
    _dispatch_batch,
    _ruin_estimate,
    estimate_negative_prob,
    estimate_Zinf_cdf,
    validate_ruin_formula,
)
from .numerics import ext_to_json
from .presets import triplet_from_spec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDETERMINED = 2


def _load_spec(args) -> dict:
    if args.preset:
        doc = {"preset": args.preset}
        if args.c is not None:
            doc["c"] = args.c
        if getattr(args, "lam", None) is not None:
            doc["lambda"] = args.lam
        return doc
    if args.spec:
        text = sys.stdin.read() if args.spec == "-" else FsPath(args.spec).read_text()
        return json.loads(text)
    raise InvalidModelError("provide --preset or --spec (field: spec)")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["continuous_example", "jump_example"])
    p.add_argument("--c", type=float, default=None, help="preset drift parameter")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="preset jump intensity")
    p.add_argument("--spec", help="inline triplet JSON file ('-' for stdin)")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_check(args) -> int:
    t, meta = triplet_from_spec(_load_spec(args))
    report = no_ruin_threshold(t)
    doc = report.to_json()
    doc["spec"] = meta
    undetermined = report.decision.kind is DecisionKind.UNDETERMINED
    if args.delta_at and not undetermined:  # delta is unknown with the decision
        doc["delta"] = {
            str(z): ext_to_json(report.feasible_u.sup_at_most(z)) for z in args.delta_at
        }
    _emit(doc)
    if undetermined:  # main prints the reason and exits 2
        raise UndeterminedError(report.warnings[-1], report.residual)
    return EXIT_OK


def cmd_simulate(args) -> int:
    t, meta = triplet_from_spec(_load_spec(args))
    step = _check_inputs(args.horizon, args.paths, args.step, [args.z], args.seed)
    out = FsPath(args.out)

    def write(ids, chunk):
        """Append each path's monitored instants to its CSV; the chunk that
        holds t = 0 starts the file.  --out is made only once the batch
        yields paths, after every input check."""
        s = chunk.states(args.z)
        out.mkdir(parents=True, exist_ok=True)
        for r, i in enumerate(ids.tolist()):
            first = s.time[r, 0] == 0.0
            with open(out / f"path_{i:04d}.csv", "w" if first else "a", newline="") as fh:
                writer = csv.writer(fh)
                if first:
                    writer.writerow(("time", "xi", "Z", "V", "jump"))
                cols = (a[r, :s.length[r]].tolist() for a in s[:5])
                writer.writerows((f"{time:.12g}", f"{xi:.12g}", f"{Z:.12g}", f"{V:.12g}", int(jump))
                                 for time, xi, Z, V, jump in zip(*cols))

    batch = _dispatch_batch(t, [], args.horizon, args.paths, args.seed, 0, step=step, sink=write)
    files = [
        {"file": f"path_{i:04d}.csv",
         "sha256": hashlib.sha256((out / f"path_{i:04d}.csv").read_bytes()).hexdigest()}
        for i in range(args.paths)
    ]
    manifest = {
        "spec": meta,
        "z": args.z,
        "horizon": args.horizon,
        "step": step,
        "engine": batch.engine,
        "seed": args.seed,
        "paths": args.paths,
        "nonfinite_paths": batch.nonfinite,
        "files": files,
        "content_hash": hashlib.sha256(
            "".join(f["sha256"] for f in files).encode()
        ).hexdigest(),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    _emit({"out": str(out), "paths": args.paths, "content_hash": manifest["content_hash"]})
    return EXIT_OK


def cmd_estimate(args) -> int:
    spec = _load_spec(args)
    t, meta = triplet_from_spec(spec)
    if args.what == "ruin":
        # the records come from the estimate's own batch, not a second run
        est, batch = _ruin_estimate(
            t, args.z, args.horizon, args.paths, args.seed, args.step,
            want_times=bool(args.out),
        )
        doc = {"what": "ruin", "z": args.z, "estimate": est.to_json()}
        if args.out:
            hit, times, values, cont = batch.records(args.z)
            path = FsPath(args.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                fh.write("path,hit,time,value_at_hit,continuous_crossing\n")
                for i in range(args.paths):
                    fh.write(
                        f"{i},{int(hit[i])},{times[i]:.12g},{values[i]:.12g},{int(cont[i])}\n"
                    )
            doc["records_csv"] = str(path)
    elif args.what == "negprob":
        est = estimate_negative_prob(t, args.horizon, args.paths, args.seed, args.step)
        doc = {"what": "negprob", "T": args.horizon, "estimate": est.to_json()}
    elif args.what == "zinf":
        cdf = estimate_Zinf_cdf(t, args.horizon, args.paths, args.seed, args.step)
        qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        import numpy as np

        doc = {
            "what": "zinf",
            "T": args.horizon,
            "n": cdf.n,
            "quantiles": {str(q): float(np.quantile(cdf.values, q)) for q in qs},
            "diagnostics": cdf.diagnostics,
        }
        if args.out:
            path = FsPath(args.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                fh.write("z_T\n")
                for v in cdf.values:
                    fh.write(f"{v:.12g}\n")
            doc["samples_csv"] = str(path)
    else:  # theorem3
        check = validate_ruin_formula(t, args.z, args.horizon, args.paths, args.seed, args.step)
        doc = {"what": "theorem3", "z": args.z, **check.to_json()}
    doc["spec"] = meta
    _emit(doc)
    return EXIT_OK


def cmd_validate(args) -> int:
    results = acceptance.run_suite(args.suite, args.seed)
    table = acceptance.format_table(results)
    print(table, file=sys.stderr)
    _emit(
        {
            "suite": args.suite,
            "seed": args.seed,
            "criteria": [r.to_json() for r in results],
            "all_passed": all(r.passed for r in results),
        }
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_UNDETERMINED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gouruin",
        description="Exact ruin classification and Monte Carlo validation for "
        "generalized Ornstein-Uhlenbeck risk processes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="exact no-ruin decision")
    _add_spec_flags(p)
    p.add_argument("--delta-at", type=float, action="append", default=[],
                   help="also report the lower-bound function at this level")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("simulate", help="write sample paths as CSV")
    _add_spec_flags(p)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="Monte Carlo estimators")
    _add_spec_flags(p)
    p.add_argument("--what", choices=["ruin", "negprob", "zinf", "theorem3"],
                   required=True)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", default=None,
                   help="CSV dump: per-path records for ruin, samples for zinf")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--suite", choices=["exact", "mc", "all"], default="all")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.set_defaults(fn=cmd_validate)
    return ap


def _join_negative_infinities(argv) -> list:
    """argparse reads a value such as ``-inf`` as an option, so ``--z -inf``
    would lack its value; join such a value to the option before it, as in
    ``--z=-inf``."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg.lower() in ("-inf", "-infinity")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_negative_infinities(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse printed its usage error, or the help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (InvalidModelError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UndeterminedError, NotApplicableError) as exc:
        residual = getattr(exc, "residual", None)
        suffix = "" if residual is None else f" residual={residual}"
        print(f"undetermined: {exc}{suffix}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except GouError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
