"""Coverage audit of the Gaussian-grid Monte Carlo intervals over many seeds.

Usage (from the repository root)::

    python tools/coverage_audit.py --seeds 200 --out audit.json
    python tools/coverage_audit.py --report parent.json change.json

Each seed 1..K runs scaled-down acceptance criteria and records whether each
interval covers its closed-form value:

* criterion 5: the Wilson interval of P(Z_1 < 0) = 1/2 for gamma = 0,
  Sigma = diag(0, 1), at n = 2000;
* criterion 6: ``ruin_formula_checks`` for gamma = (1, 0), Sigma = diag(0, 1)
  at z in {0, 0.5, 1}, n = 2000, T = 20, step 1e-3: the lhs Wilson interval
  and the rhs ratio interval against 2 Phi(-z sqrt 2), and how often
  ``consistent`` is False (or None, fewer than 30 events);
* ``expmart`` ruin of continuous_example(c), c in {0.4, -0.3}, at z = 0.5,
  T = 10, step 0.01, n = 2000, against P(sup_{t<=T} (B_t + c t) > -log(1 - z)).

Every rate k/K carries its binomial 95% Wilson interval.  The package is
imported from ``src`` of this checkout, with one worker.  ``--report``
prints two saved runs side by side, with their run times, as a markdown
table.  The audit takes minutes; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N_PATHS = 2000
C6_LEVELS = (0.0, 0.5, 1.0)
EXPMART_C = (0.4, -0.3)
Z975 = 1.959963984540054


def wilson(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval of k successes in n trials."""
    p = k / n
    denom = 1.0 + Z975 * Z975 / n
    center = (p + Z975 * Z975 / (2 * n)) / denom
    half = (Z975 / denom) * math.sqrt(p * (1.0 - p) / n + Z975 * Z975 / (4 * n * n))
    return (0.0 if k == 0 else max(0.0, center - half)), (1.0 if k == n else min(1.0, center + half))


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def expmart_oracle(c: float, z: float, horizon: float) -> float:
    """P(sup_{t<=T} (B_t + c t) > a), a = -log(1 - z)."""
    a = -math.log1p(-z)
    rt = math.sqrt(horizon)
    return norm_cdf((c * horizon - a) / rt) + math.exp(2.0 * c * a) * norm_cdf((-c * horizon - a) / rt)


def covers(est, p: float) -> bool:
    return est.ci_low <= p <= est.ci_high


def audit_seed(seed: int) -> dict:
    """The events of one seed, by rate name."""
    from gouruin.estimate import estimate_negative_prob, estimate_ruin, ruin_formula_checks
    from gouruin.model import FiniteAtomSet, LevyTriplet2D
    from gouruin.presets import continuous_example_triplet

    out = {}
    driftless = LevyTriplet2D((0.0, 0.0), ((0.0, 0.0), (0.0, 1.0)), FiniteAtomSet([]))
    out["c5.wilson_covers"] = covers(estimate_negative_prob(driftless, 1.0, N_PATHS, seed), 0.5)

    drift = LevyTriplet2D((1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)), FiniteAtomSet([]))
    checks = ruin_formula_checks(drift, list(C6_LEVELS), 20.0, N_PATHS, seed, step=1e-3)
    for z in C6_LEVELS:
        oracle = 2.0 * norm_cdf(-z * math.sqrt(2.0))
        out[f"c6.lhs_covers.z{z}"] = covers(checks[z].lhs, oracle)
        out[f"c6.rhs_covers.z{z}"] = covers(checks[z].rhs, oracle)
        out[f"c6.inconsistent.z{z}"] = checks[z].consistent is False
        out[f"c6.undetermined.z{z}"] = checks[z].consistent is None

    for c in EXPMART_C:
        est = estimate_ruin(continuous_example_triplet(c), 0.5, 10.0, N_PATHS, seed, step=0.01)
        out[f"expmart.wilson_covers.c{c:+.1f}"] = covers(est, expmart_oracle(c, 0.5, 10.0))
    return out


def run(k: int) -> dict:
    os.environ["GOU_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    counts: dict = {}
    for seed in range(1, k + 1):
        for name, hit in audit_seed(seed).items():
            counts[name] = counts.get(name, 0) + int(hit)
    rates = {name: {"k": c, "n": k, "rate": c / k, "ci95": list(wilson(c, k))}
             for name, c in counts.items()}
    return {"seeds": k, "n_paths": N_PATHS, "run_s": time.perf_counter() - t0, "rates": rates}


def report(paths) -> str:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    head = "| rate | " + " | ".join(Path(p).stem for p in paths) + " |"
    lines = [head, "|---" * (len(paths) + 1) + "|"]
    for name in runs[0]["rates"]:
        cells = []
        for r in runs:
            x = r["rates"].get(name)
            cells.append("—" if x is None else
                         f"{x['k']}/{x['n']} = {x['rate']:.3f} [{x['ci95'][0]:.3f}, {x['ci95'][1]:.3f}]")
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines.append("| run time | " + " | ".join(f"{r['run_s']:.0f} s" for r in runs) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=200, help="number of seeds K (seeds 1..K)")
    ap.add_argument("--out", help="write the JSON result here as well")
    ap.add_argument("--report", nargs="+", help="print saved results as a markdown table")
    args = ap.parse_args(argv)
    if args.report:
        print(report(args.report))
        return 0
    result = run(args.seeds)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
