"""Acceptance criteria: one function per criterion, each with its pinned
tolerance and runtime budget.

The exact suite checks the two preset thresholds, the agreement of the two
subordinator-test routes over a randomized corpus, the lower-bound function
laws, and scaling invariance.  The Monte Carlo suite checks the sign
probability of the driftless integral, the closed-form ruin oracle of the
deterministic-drift driver, the strong convergence order of the discounted
integral, and no-ruin certification by exact event-driven simulation.

Every criterion is deterministic given the seed; ``run_suite`` is what both
``gouruin validate`` and the test suite execute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .classify import (
    DecisionKind,
    feasible_u_set,
    is_subordinator_1d,
    is_subordinator_s,
    no_ruin_threshold,
)
from .errors import InvalidModelError
from .estimate import estimate_negative_prob, estimate_ruin
from .model import FiniteAtomSet, JumpAtom, LevyTriplet2D, s_process
from .numerics import NEG_INF
from .presets import continuous_example_triplet, jump_example_triplet
from .regions import thetas
from .simulate import (
    PathConfig,
    brownian_part,
    closed_form_continuous_example,
    compute_Z,
    simulate_pair,
)

DEFAULT_SEED = 1234

E_RATIO = math.e / (math.e - 1.0)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    elapsed: float
    budget: float
    detail: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed, 3),
            "budget_s": self.budget,
            "detail": self.detail,
        }


def _finish(name, budget, t0, ok, detail) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    passed = bool(ok) and elapsed < budget
    if elapsed >= budget:
        detail += f" [over budget: {elapsed:.1f}s >= {budget}s]"
    return CriterionResult(name, passed, elapsed, budget, detail)


# ---------------------------------------------------------------------------
# Randomized corpus
# ---------------------------------------------------------------------------


def random_atom_triplet(rng: np.random.Generator, max_atoms: int = 8) -> LevyTriplet2D:
    """Random atom-tier triplet mixing axis atoms, unit-disk atoms, and the
    three covariance shapes (zero, rigid rank-1, full rank)."""
    n_atoms = int(rng.integers(0, max_atoms + 1))
    atoms = []
    for _ in range(n_atoms):
        x = 0.0 if rng.random() < 0.15 else float(rng.uniform(-2.0, 2.0))
        y = 0.0 if rng.random() < 0.15 else float(rng.uniform(-2.0, 2.0))
        if x == 0.0 and y == 0.0:
            y = float(rng.uniform(0.1, 1.0))
        atoms.append(JumpAtom(x, y, float(rng.uniform(0.05, 2.0))))
    shape = int(rng.integers(0, 3))
    if shape == 0:
        sigma = ((0.0, 0.0), (0.0, 0.0))
    elif shape == 1:
        s2 = float(rng.uniform(0.1, 2.0))
        u0 = float(rng.uniform(-2.5, 2.5))
        sigma = ((s2, -u0 * s2), (-u0 * s2, u0 * u0 * s2))
    else:
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        m = a @ a.T + 0.05 * np.eye(2)
        sigma = ((float(m[0, 0]), float(m[0, 1])), (float(m[1, 0]), float(m[1, 1])))
    gamma = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
    return LevyTriplet2D(gamma, sigma, FiniteAtomSet(atoms))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Continuous preset: the check command reports threshold exactly 1.0."""
    t0 = time.perf_counter()
    import contextlib
    import io
    import json

    from . import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", "--preset", "continuous_example", "--c", "0"])
    doc = json.loads(buf.getvalue())
    threshold = doc["decision"]["threshold"]
    ok = (
        code == 0
        and doc["decision"]["kind"] == "no_ruin_from"
        and threshold == 1.0
    )
    return _finish(
        "1 continuous-example threshold", 1.0, t0, ok,
        f"threshold={threshold!r} exit={code}",
    )


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Jump preset: theta2 = e/(e-1) and feasible interval [e/(e-1), 2]."""
    t0 = time.perf_counter()
    t = jump_example_triplet(1.0, 1.0)
    th = thetas(t.jumps)
    feas = feasible_u_set(t)
    ok = abs(th.theta2 - E_RATIO) <= 1e-12
    detail = f"theta2={th.theta2:.15f}"
    if len(feas.intervals) == 1:
        iv = feas.intervals[0]
        ok = ok and abs(iv.lo - E_RATIO) <= 1e-12 and abs(iv.hi - 2.0) <= 1e-12
        ok = ok and not iv.lo_open and not iv.hi_open
        detail += f" feasible=[{iv.lo:.15f},{iv.hi:.15f}]"
    else:
        ok = False
        detail += f" feasible has {len(feas.intervals)} intervals"
    return _finish("2 jump-example threshold", 1.0, t0, ok, detail)


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Structural subordinator test agrees with the direct definition on
    1000 random triplets x 50 levels."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    mismatches = 0
    total = 0
    example = ""
    for _ in range(1000):
        t = random_atom_triplet(rng)
        us = rng.uniform(-3.0, 3.0, size=50)
        for u in us:
            total += 1
            v1 = is_subordinator_s(t, float(u)).verdict
            v2 = is_subordinator_1d(s_process(t, float(u))).verdict
            if v1 is not v2:
                mismatches += 1
                if not example:
                    example = f" first mismatch at u={u:.6f}"
    ok = mismatches == 0
    return _finish(
        "3 oracle equivalence", 30.0, t0, ok,
        f"{total - mismatches}/{total} agree{example}",
    )


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Lower-bound function laws: descent, monotonicity, idempotence."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = 0
    checked = 0
    for _ in range(1000):
        t = random_atom_triplet(rng)
        feas = feasible_u_set(t)
        zs = np.linspace(-3.0, 3.0, 21)
        prev = NEG_INF
        for z in zs:
            d = feas.sup_at_most(float(z))
            checked += 1
            if d > z + 1e-15:
                violations += 1
            if d < prev - 1e-15:
                violations += 1
            prev = d
            if d > NEG_INF:
                d2 = feas.sup_at_most(d)
                if d2 != d:
                    violations += 1
    ok = violations == 0
    return _finish(
        "4 lower-bound laws", 30.0, t0, ok, f"{checked} grid points, {violations} violations"
    )


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Sign probability of the driftless integral: P(Z_1 < 0) = 1/2."""
    t0 = time.perf_counter()
    t = LevyTriplet2D((0.0, 0.0), ((0.0, 0.0), (0.0, 1.0)), FiniteAtomSet([]))
    n = 100_000
    est = estimate_negative_prob(t, 1.0, n, seed)
    tol = 3.0 * math.sqrt(0.25 / n)
    ok = abs(est.point - 0.5) <= tol
    return _finish(
        "5 sign probability 1/2", 60.0, t0, ok,
        f"point={est.point:.5f} tol={tol:.5f}",
    )


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Deterministic-drift driver: ruin estimate and ratio formula both cover
    the closed-form oracle 2 Phi(-z sqrt(2)) at z in {0, 0.5, 1}."""
    t0 = time.perf_counter()
    from .estimate import ruin_formula_checks

    t = LevyTriplet2D((1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)), FiniteAtomSet([]))
    n, horizon, step = 100_000, 20.0, 1e-3
    zs = (0.0, 0.5, 1.0)
    checks = ruin_formula_checks(t, list(zs), horizon, n, seed, step=step)
    details = []
    ok = True
    for z in zs:
        oracle = 2.0 * 0.5 * (1.0 + math.erf(-z * math.sqrt(2.0) / math.sqrt(2.0)))
        check = checks[z]
        lhs_cover = check.lhs.ci_low <= oracle <= check.lhs.ci_high
        rhs_cover = check.rhs.ci_low <= oracle <= check.rhs.ci_high
        ok = ok and lhs_cover and rhs_cover
        details.append(
            f"z={z}: oracle={oracle:.4f} lhs={check.lhs.point:.4f}"
            f"[{check.lhs.ci_low:.4f},{check.lhs.ci_high:.4f}]"
            f" rhs={check.rhs.point:.4f}[{check.rhs.ci_low:.4f},{check.rhs.ci_high:.4f}]"
        )
    return _finish("6 ruin-formula closed form", 300.0, t0, ok, "; ".join(details))


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Strong order of the discounted-integral discretization in [0.4, 0.7],
    and the discretized integral respects the -1 floor up to 10*step."""
    t0 = time.perf_counter()
    c = 0.4
    t = continuous_example_triplet(c)
    n_paths = 1000
    levels = [2.0 ** -k for k in range(4, 11)]
    rmse = []
    floor_ok = True
    for h in levels:
        errs = np.empty(n_paths)
        for i in range(n_paths):
            cfg = PathConfig(1.0, h, seed, None)
            p = simulate_pair(t, cfg, path_index=i)
            Z = compute_Z(p)
            B = brownian_part(p)
            Zex = closed_form_continuous_example(c, B, p.times)
            errs[i] = Z[-1] - Zex[-1]
            if Z.min() < -1.0 - 10.0 * h:
                floor_ok = False
        rmse.append(math.sqrt(float(np.mean(errs**2))))
    slope = -np.polyfit(np.log([1 / h for h in levels]), np.log(rmse), 1)[0]
    order = -slope if slope < 0 else slope
    ok = 0.4 <= order <= 0.7 and floor_ok
    return _finish(
        "7 strong order", 120.0, t0, ok,
        f"fitted order={order:.3f} floor_ok={floor_ok}",
    )


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exact event-driven certification of the jump preset: no ruin above
    the threshold, positive ruin below it."""
    t0 = time.perf_counter()
    t = jump_example_triplet(1.0, 1.0)
    n, horizon = 10_000, 1000.0
    above = estimate_ruin(t, 1.7, horizon, n, seed)
    below = estimate_ruin(t, 0.5, horizon, n, seed)
    ok = above.n_events == 0 and below.ci_low > 0.0
    return _finish(
        "8 no-ruin certification", 120.0, t0, ok,
        f"z=1.7 events={above.n_events}; z=0.5 point={below.point:.4f} "
        f"ci_low={below.ci_low:.4f}",
    )


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Scaling invariance: the decision commutes with scaling the second
    component, thresholds to 1e-10 relative."""
    t0 = time.perf_counter()
    from .model import scale_eta

    rng = np.random.default_rng(seed + 9)
    bad = 0
    checked = 0
    for _ in range(100):
        t = random_atom_triplet(rng)
        base = no_ruin_threshold(t)
        for k in (0.5, 2.0, 10.0):
            checked += 1
            scaled = no_ruin_threshold(scale_eta(t, k))
            if base.decision.kind is not scaled.decision.kind:
                bad += 1
                continue
            if base.decision.kind is DecisionKind.NO_RUIN_FROM:
                u, v = base.decision.threshold, scaled.decision.threshold
                if abs(v - k * u) > 1e-10 * max(1.0, abs(k * u)):
                    bad += 1
    ok = bad == 0
    return _finish("9 scaling invariance", 10.0, t0, ok, f"{checked} cases, {bad} mismatches")


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}

SUITES = {
    "exact": (1, 2, 3, 4, 9),
    "mc": (5, 6, 7, 8),
    "all": (1, 2, 3, 4, 5, 6, 7, 8, 9),
}


def run_suite(suite: str = "all", seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    if seed < 0:
        raise InvalidModelError(f"seed must be a non-negative integer, got {seed}")
    return [_CRITERIA[k](seed) for k in SUITES[suite]]


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.elapsed:7.2f}s  {r.detail}")
    overall = "ALL PASSED" if all(r.passed for r in results) else "FAILURES PRESENT"
    lines.append(overall)
    return "\n".join(lines)
