"""Monte Carlo estimators with confidence intervals.

Every estimator fans simulation out over per-path random streams keyed by
(seed, stream, path_index), so results depend only on (seed, n) and never on
chunking or worker count; ``GOU_THREADS`` caps the worker pool.  Probability
estimates carry Wilson 95% intervals, which stay informative at p = 0.

Engine selection per driver, under the names the reports print:

* ``exact_fv``: zero Gaussian part, finitely many jump types; event-driven
  with exact crossing detection (no discretization error at all).
* ``expmart``: no jumps and the Gaussian/drift structure that makes the
  discounted integral an explicit function of xi; values at grid times are
  exact, and sub-grid crossings are resolved by exact Brownian-bridge
  probabilities in xi space.
* ``grid_bridge``: no jumps and deterministic xi; left-point Euler on a
  uniform grid, where the integral has independent Gaussian increments and
  sub-grid crossings are again resolved exactly by bridge probabilities.
* ``grid``: no jumps and random xi; the Euler grid scan stands alone and the
  ruin estimate errs on the survival side (the documented bias direction).
* ``mixed_grid``: every other driver; per-path jump-adapted Euler.

Each engine has one first-passage reducer, and the estimators, the formula
checks and the per-path records all read the same batch of paths.

Ruin is an infinite-horizon quantity; estimates are over a finite horizon
and therefore estimate it from below.  When the discounted integral is known
to converge, a tail diagnostic (fraction of surviving paths ending within
eps of the ruin boundary) quantifies the truncation risk.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict, z_infinity_converges
from .errors import NotApplicableError
from .model import LevyTriplet2D
from .numerics import BOUNDARY_TOL
from .simulate import (
    FirstPassage,
    PathConfig,
    _fv_events,
    _fv_passage,
    _fv_state_arrays,
    _require_fv,
    _segment_z_increment,
    compute_V,
    compute_Z,
    first_passage,
    path_rng,
    simulate_pair,
)

_Z975 = 1.959963984540054


def worker_count() -> int:
    """``GOU_THREADS``, clamped to [1, CPUs this process may run on]."""
    try:
        wanted = int(os.environ.get("GOU_THREADS", "1"))
    except ValueError:
        wanted = 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(wanted, cpus))


def wilson_interval(k: int, n: int, z: float = _Z975) -> tuple[float, float]:
    """Wilson score interval; well behaved at k = 0 and k = n."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    ci_low: float
    ci_high: float
    n_paths: int
    n_events: int
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_paths": self.n_paths,
            "n_events": self.n_events,
            "diagnostics": self.diagnostics,
        }


class EmpiricalCDF:
    """Right-continuous empirical distribution of a sample."""

    def __init__(self, values, diagnostics: dict | None = None):
        self.values = np.sort(np.asarray(values, dtype=float))
        self.diagnostics = diagnostics or {}

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, x):
        return np.searchsorted(self.values, x, side="right") / self.n

    def ks_distance_to(self, cdf) -> float:
        """Sup distance to a reference cdf callable."""
        ref = np.asarray(cdf(self.values), dtype=float)
        steps = np.arange(1, self.n + 1) / self.n
        return float(
            max(np.max(np.abs(steps - ref)), np.max(np.abs(steps - 1.0 / self.n - ref)))
        )

    def ks_two_sample(self, other: "EmpiricalCDF") -> float:
        pooled = np.concatenate([self.values, other.values])
        return float(np.max(np.abs(self(pooled) - other(pooled))))


# ---------------------------------------------------------------------------
# Batch simulation cores
# ---------------------------------------------------------------------------


@dataclass
class _BatchResult:
    """Per-z first-passage records plus terminal samples shared across
    levels; ``time`` is filled only when the caller asks for times."""

    hit: dict[float, np.ndarray]
    v_hit: dict[float, np.ndarray]
    continuous: dict[float, np.ndarray]
    time: dict[float, np.ndarray]
    z_T: np.ndarray | None
    z_half: np.ndarray | None
    engine: str

    @classmethod
    def per_path(cls, z_list, n, want_terminal, want_times, engine) -> "_BatchResult":
        """Empty records for engines that reduce one path at a time."""
        return cls(
            {z: np.zeros(n, dtype=bool) for z in z_list},
            {z: np.full(n, math.nan) for z in z_list},
            {z: np.zeros(n, dtype=bool) for z in z_list},
            {z: np.full(n, math.nan) for z in z_list} if want_times else {},
            np.empty(n) if want_terminal else None,
            np.empty(n) if want_terminal else None,
            engine,
        )

    def record(self, z: float, i: int, fp: FirstPassage) -> None:
        if fp.hit:
            self.hit[z][i] = True
            self.v_hit[z][i] = fp.v_at_hit
            self.continuous[z][i] = fp.continuous_crossing
            if self.time:
                self.time[z][i] = fp.time


def _hash_uniforms(seed: int, stream: int, idx0: int, flat_cells: np.ndarray) -> np.ndarray:
    """Deterministic per-(path, cell) uniforms, independent of the z level
    and of evaluation order (splitmix64)."""
    with np.errstate(over="ignore"):
        x = (
            np.uint64(0x9E3779B97F4A7C15) * np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
            ^ np.uint64(0xC2B2AE3D27D4EB4F) * np.uint64(stream + 1)
        )
        v = flat_cells.astype(np.uint64) + np.uint64(idx0)
        v = (v + x) * np.uint64(0xBF58476D1CE4E5B9)
        v ^= v >> np.uint64(30)
        v *= np.uint64(0x94D049BB133111EB)
        v ^= v >> np.uint64(27)
        v *= np.uint64(0x2545F4914F6CDD1D)
        v ^= v >> np.uint64(31)
    return (v >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _is_expmart(t: LevyTriplet2D) -> float | None:
    """Level u0 when the integral has the closed form u0 (e^-xi - 1)."""
    atoms = t.jumps.atoms_or_none()
    if atoms is None or len(atoms) > 0:
        return None
    s11, s12 = t.sigma[0]
    s22 = t.sigma[1][1]
    if s11 <= BOUNDARY_TOL:
        return None
    u0 = -s12 / s11
    if abs(u0) <= BOUNDARY_TOL:
        return None
    scale = max(1.0, s11, s22, u0 * u0 * s11)
    if abs(s22 - u0 * u0 * s11) > BOUNDARY_TOL * scale:
        return None
    target = u0 * (0.5 * s11 - t.gamma_tilde[0])
    if abs(t.gamma_tilde[1] - target) > BOUNDARY_TOL * max(1.0, abs(target)):
        return None
    return u0


def _select_engine(t: LevyTriplet2D) -> str:
    """Canonical engine name of a driver, as the reports print it."""
    atoms = t.jumps.atoms_or_none()
    sigma_zero = all(abs(v) <= BOUNDARY_TOL for row in t.sigma for v in row)
    if atoms is not None and sigma_zero:
        return "exact_fv"
    if atoms is not None and len(atoms) == 0:
        if _is_expmart(t) is not None:
            return "expmart"
        return "grid_bridge" if t.sigma[0][0] <= BOUNDARY_TOL else "grid"
    return "mixed_grid"


def _chunk_ranges(n: int, chunk: int):
    return [(i, min(i + chunk, n)) for i in range(0, n, chunk)]


def _run_chunks(fn, ranges):
    workers = worker_count()
    if workers <= 1 or len(ranges) <= 1:
        return [fn(r) for r in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ranges))


def _gaussian_grid_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    step: float,
    n: int,
    seed: int,
    stream: int,
    want_terminal: bool,
    engine: str,
    want_times: bool = False,
) -> _BatchResult:
    """No-jump drivers (``expmart``, ``grid_bridge``, ``grid``): vectorized
    marching over path chunks.

    Ruin detection is reduced to one scalar per path, the critical starting
    level below which the path is ruined: the grid minimum of the integral
    plus, where the sub-grid law is exactly a Brownian bridge (deterministic
    xi, or the closed-form regime in xi space), the per-cell crossing roots
    solved from hash-derived uniforms.  Levels then compare against that
    scalar, so common random numbers and monotonicity in the level are
    structural.  Crossings are continuous (no jumps), so the overshoot value
    is identically zero and is never stored.

    A ruined path's time is the first grid instant past the level, or the
    right end of an earlier cell whose bridge crossing root passes it (the
    same root and uniform as the critical level), so a path has a time
    exactly when it is ruined.
    """
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps
    times = np.arange(n_steps + 1) * h
    times_or_nan = np.append(times, math.nan)
    half_idx = n_steps // 2
    gx, gy = t.gamma_tilde
    s11, s12 = t.sigma[0]
    s22 = t.sigma[1][1]
    u0 = _is_expmart(t) if engine == "expmart" else None
    sigma_xi = math.sqrt(max(0.0, s11))

    # largest bridge exponent a hash uniform can produce (u >= 2^-53)
    q_max = 0.5 * 53.0 * math.log(2.0)

    chunk = max(1, min(n, 16_000_000 // max(1, n_steps)))
    ranges = _chunk_ranges(n, chunk)

    if engine == "grid_bridge":
        xi_det = gx * times
        disc = np.exp(-xi_det[:-1])
        w_vec = disc * math.sqrt(max(0.0, s22)) * math.sqrt(h)
        det_prefix = np.concatenate([[0.0], np.cumsum(disc * gy * h)])
        cell_var = w_vec * w_vec
        prec = np.sqrt(q_max * cell_var)

    def _bridge_cells(path_mat, var_vec, prec_vec, thr, row_ids, upper):
        """Cells whose exact bridge extreme can pass ``thr`` (one value per
        row), and that extreme solved from the cell's hash uniform.

        For upper crossings a cell fires at levels in [max(end values),
        extreme); ``prec_vec`` bounds the extreme's distance from the end
        values, so no other cell's extreme passes ``thr``.
        """
        if upper:
            madj = np.maximum(path_mat[:, :-1], path_mat[:, 1:])
            cand = madj > (thr[:, None] - prec_vec[None, :])
        else:
            madj = np.minimum(path_mat[:, :-1], path_mat[:, 1:])
            cand = madj < (thr[:, None] + prec_vec[None, :])
        rows, cols = np.nonzero(cand)
        left = path_mat[rows, cols]
        right = path_mat[rows, cols + 1]
        u = _hash_uniforms(seed, stream, 0, row_ids[rows] * (n_steps + 1) + cols)
        q = -0.5 * np.log(np.maximum(u, 2.0 ** -53))
        half = 0.5 * (left - right)
        mid = 0.5 * (left + right)
        root = np.sqrt(half * half + q * var_vec[cols])
        return rows, cols, (mid + root if upper else mid - root)

    def _bridge_extreme(path_mat, var_vec, prec_vec, base, row_ids, upper=True):
        """Per-row extreme over the grid values and all bridge roots."""
        rows, _, ext = _bridge_cells(path_mat, var_vec, prec_vec, base, row_ids, upper)
        out = base.copy()
        (np.maximum if upper else np.minimum).at(out, rows, ext)
        return out

    def _passage_times(path_mat, zcrit, row_ids, fire=None, bridge=None):
        """Per level, the first-passage time of each ruined row (NaN on the
        others).  ``fire`` maps path values to the level they ruin (the
        identity on -Z); ``bridge`` is (var, prec, base, level -> path
        value, upper) on the bridge engines."""
        out = {}
        for z in z_list:
            t_z = np.full(len(zcrit), math.nan)
            rows = np.nonzero(zcrit > z)[0]
            if len(rows):
                sub = path_mat[rows]
                past = (sub if fire is None else fire(sub)) > z
                first = np.where(past.any(axis=1), past.argmax(axis=1), n_steps + 1)
                if bridge is not None:
                    var_vec, prec_vec, base, to_path, upper = bridge
                    # every cell that can pass z, and every cell zcrit looked at
                    with np.errstate(divide="ignore", invalid="ignore"):
                        thr = (np.fmin if upper else np.fmax)(to_path(z), base[rows])
                    r, c, ext = _bridge_cells(sub, var_vec, prec_vec, thr, row_ids[rows], upper)
                    fired = (ext if fire is None else fire(ext)) > z
                    np.minimum.at(first, r[fired], c[fired] + 1)
                t_z[rows] = times_or_nan[first]
            out[z] = t_z
        return out

    def run(rng_range):
        i0, i1 = rng_range
        m = i1 - i0
        row_ids = np.arange(i0, i1)
        zT = np.empty(m) if want_terminal else None
        zH = np.empty(m) if want_terminal else None
        zcrit = passage = None

        if engine == "grid_bridge":
            buf = np.empty((m, n_steps))
            for j in range(m):
                rng = path_rng(seed, i0 + j, stream)
                buf[j] = rng.standard_normal(n_steps)
            np.multiply(buf, w_vec[None, :], out=buf)
            Z = np.empty((m, n_steps + 1))
            Z[:, 0] = 0.0
            np.cumsum(buf, axis=1, out=Z[:, 1:])
            Z += det_prefix[None, :]
            if want_terminal:
                zT[:] = Z[:, -1]
                zH[:] = Z[:, half_idx]
            if z_list:
                base = -Z.min(axis=1)
                neg_Z = -Z
                zcrit = _bridge_extreme(neg_Z, cell_var, prec, base, row_ids)
                if want_times:
                    bridge = (cell_var, prec, base, lambda z: z, True)
                    passage = _passage_times(neg_Z, zcrit, row_ids, bridge=bridge)
            return zcrit, zT, zH, passage

        # random xi: simulate both components
        xi = np.empty((m, n_steps + 1))
        eta_inc = np.empty((m, n_steps)) if u0 is None else None
        if sigma_xi > 0.0:
            l21 = s12 / sigma_xi
            l22 = math.sqrt(max(0.0, s22 - l21 * l21))
        else:
            l21, l22 = 0.0, math.sqrt(max(0.0, s22))
        sqh = math.sqrt(h)
        for j in range(m):
            rng = path_rng(seed, i0 + j, stream)
            zmat = rng.standard_normal((n_steps, 2))
            xi[j, 0] = 0.0
            np.cumsum(sigma_xi * sqh * zmat[:, 0], out=xi[j, 1:])
            if eta_inc is not None:
                eta_inc[j] = gy * h + (l21 * zmat[:, 0] + l22 * zmat[:, 1]) * sqh
        xi += (gx * times)[None, :]

        if u0 is not None:
            Z_ends = u0 * np.expm1(-xi[:, [half_idx, -1]])
            if want_terminal:
                zH[:] = Z_ends[:, 0]
                zT[:] = Z_ends[:, 1]
            if z_list:
                var_xi = np.full(n_steps, s11 * h)
                prec_xi = np.sqrt(q_max * var_xi)
                # -Z = u0 (1 - e^-xi) rises with xi when u0 > 0, falls otherwise
                upper = u0 > 0.0
                base = xi.max(axis=1) if upper else xi.min(axis=1)
                level = _bridge_extreme(xi, var_xi, prec_xi, base, row_ids, upper)

                def fire(x):
                    with np.errstate(over="ignore"):
                        return u0 * -np.expm1(-x)

                zcrit = fire(level)
                if want_times:
                    bridge = (var_xi, prec_xi, base, lambda z: -np.log1p(-z / u0), upper)
                    passage = _passage_times(xi, zcrit, row_ids, fire, bridge)
            return zcrit, zT, zH, passage

        with np.errstate(over="ignore"):
            Z = np.empty((m, n_steps + 1))
            Z[:, 0] = 0.0
            np.cumsum(np.exp(-xi[:, :-1]) * eta_inc, axis=1, out=Z[:, 1:])
        if want_terminal:
            zT[:] = Z[:, -1]
            zH[:] = Z[:, half_idx]
        # Euler grid scan only; sub-grid crossings are missed (the estimate
        # errs on the survival side).
        if z_list:
            zcrit = -Z.min(axis=1)
            if want_times:
                passage = _passage_times(-Z, zcrit, row_ids)
        return zcrit, zT, zH, passage

    parts = _run_chunks(run, ranges)
    zT = np.concatenate([p[1] for p in parts]) if want_terminal else None
    zH = np.concatenate([p[2] for p in parts]) if want_terminal else None
    res = _BatchResult({}, {}, {}, {}, zT, zH, engine)
    if z_list:
        zcrit = np.concatenate([p[0] for p in parts])
    for z in z_list:
        hz = zcrit > z
        res.hit[z] = hz
        res.v_hit[z] = np.where(hz, 0.0, math.nan)
        res.continuous[z] = hz
        if want_times:
            res.time[z] = np.concatenate([p[3][z] for p in parts])
    return res


def _fv_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    n: int,
    seed: int,
    stream: int,
    want_terminal: bool,
    want_times: bool = False,
) -> _BatchResult:
    """Event-driven exact batch for zero-Gaussian atom drivers."""
    _require_fv(t)
    res = _BatchResult.per_path(z_list, n, want_terminal, want_times, "exact_fv")

    def run(rng_range):
        i0, i1 = rng_range
        for i in range(i0, i1):
            rng = path_rng(seed, i, stream)
            tau, jx, jy = _fv_events(t, horizon, rng)
            state = _fv_state_arrays(t, tau, jx, jy, horizon)
            if want_terminal:
                bx, by, _, xi_post, _, z_post, z_final, _ = state
                res.z_T[i] = z_final
                half = 0.5 * horizon
                k = int(np.searchsorted(tau, half))
                base_xi = xi_post[k - 1] if k else 0.0
                base_z = z_post[k - 1] if k else 0.0
                base_t = tau[k - 1] if k else 0.0
                res.z_half[i] = base_z + _segment_z_increment(
                    np.array([base_xi]), np.array([half - base_t]), bx, by
                )[0]
            for z in z_list:
                res.record(z, i, _fv_passage(z, tau, state, want_times))
        return None

    chunk = max(1, n // max(1, worker_count() * 8))
    _run_chunks(run, _chunk_ranges(n, chunk))
    return res


def _mixed_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    step: float,
    n: int,
    seed: int,
    stream: int,
    want_terminal: bool,
    truncation_eps: float | None,
    want_times: bool = False,
) -> _BatchResult:
    """General driver: per-path jump-adapted Euler simulation."""
    cfg = PathConfig(horizon, step, seed, truncation_eps)
    res = _BatchResult.per_path(z_list, n, want_terminal, want_times, "mixed_grid")

    def run(rng_range):
        i0, i1 = rng_range
        for i in range(i0, i1):
            # Note: per-path streams come from (seed, stream, i) inside
            # simulate_pair via its path_index argument.
            p = simulate_pair(t, cfg, i, stream)
            Z = compute_Z(p)
            if want_terminal:
                res.z_T[i] = Z[-1]
                res.z_half[i] = Z[np.searchsorted(p.times, 0.5 * horizon)]
            for z in z_list:
                res.record(z, i, first_passage(p, z, Z))
        return None

    chunk = max(1, n // max(1, worker_count() * 8))
    _run_chunks(run, _chunk_ranges(n, chunk))
    return res


def _default_step(horizon: float, step: float | None) -> float:
    if step is not None:
        return step
    return min(0.01, horizon / 100.0)


def _dispatch_batch(
    t, z_list, horizon, n, seed, stream, want_terminal, step=None, truncation_eps=None,
    want_times=False,
) -> _BatchResult:
    engine = _select_engine(t)
    if engine == "exact_fv":
        return _fv_batch(t, z_list, horizon, n, seed, stream, want_terminal, want_times)
    step = _default_step(horizon, step)
    if engine == "mixed_grid":
        return _mixed_batch(
            t, z_list, horizon, step, n, seed, stream, want_terminal, truncation_eps,
            want_times,
        )
    return _gaussian_grid_batch(
        t, z_list, horizon, step, n, seed, stream, want_terminal, engine, want_times
    )


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def estimate_ruin(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
    truncation_eps: float | None = None,
    tail_eps: float = 0.05,
) -> EstimateWithCI:
    """Fraction of paths ruined before the horizon (lower bound on the
    infinite-horizon ruin probability)."""
    converges = z_infinity_converges(t)
    batch = _dispatch_batch(
        t, [z], horizon, n, seed, stream=0,
        want_terminal=converges is Verdict.YES,
        step=step, truncation_eps=truncation_eps,
    )
    hits = batch.hit[z]
    k = int(hits.sum())
    lo, hi = wilson_interval(k, n)
    diag = {
        "horizon": horizon,
        "engine": batch.engine,
        "estimates_infinite_horizon_from_below": True,
    }
    if batch.z_T is not None:
        survivors = ~hits
        near = np.sum((z + batch.z_T[survivors]) < tail_eps)
        diag["tail_near_ruin_fraction"] = float(near / max(1, survivors.sum()))
        diag["tail_eps"] = tail_eps
    return EstimateWithCI(k / n, lo, hi, n, k, diag)


def estimate_negative_prob(
    t: LevyTriplet2D,
    T: float,
    n: int,
    seed: int,
    step: float | None = None,
    truncation_eps: float | None = None,
) -> EstimateWithCI:
    """Fraction of paths whose discounted integral is negative at time T."""
    batch = _dispatch_batch(
        t, [], T, n, seed, stream=0, want_terminal=True,
        step=step, truncation_eps=truncation_eps,
    )
    k = int(np.sum(batch.z_T < 0.0))
    lo, hi = wilson_interval(k, n)
    return EstimateWithCI(k / n, lo, hi, n, k, {"T": T, "engine": batch.engine})


def estimate_Zinf_cdf(
    t: LevyTriplet2D,
    T: float,
    n: int,
    seed: int,
    step: float | None = None,
    truncation_eps: float | None = None,
) -> EmpiricalCDF:
    """Empirical law of the discounted integral at T as a proxy for its
    limit law; refuses when the limit does not exist.

    The distance between the laws at T and T/2 is reported as a
    convergence-in-horizon diagnostic.
    """
    verdict = z_infinity_converges(t)
    if verdict is not Verdict.YES:
        raise NotApplicableError(
            f"the discounted integral does not converge for this driver ({verdict.value})"
        )
    batch = _dispatch_batch(
        t, [], T, n, seed, stream=1, want_terminal=True,
        step=step, truncation_eps=truncation_eps,
    )
    half_cdf = EmpiricalCDF(batch.z_half)
    cdf = EmpiricalCDF(batch.z_T)
    ks = cdf.ks_two_sample(half_cdf)
    cdf.diagnostics.update({"T": T, "ks_T_vs_half": ks, "engine": batch.engine})
    return cdf


@dataclass(frozen=True)
class RuinFormulaCheck:
    """Two-sided validation of the ruin identity
    psi(z) = G(-z) / E[G(-V at ruin) | ruin]."""

    lhs: EstimateWithCI
    rhs: EstimateWithCI
    consistent: bool | None
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "consistent": self.consistent,
            "diagnostics": self.diagnostics,
        }


def validate_ruin_formula(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
    g_cdf: EmpiricalCDF | None = None,
    truncation_eps: float | None = None,
) -> RuinFormulaCheck:
    """Direct ruin estimate versus the ratio formula, same empirical law in
    numerator and denominator.

    Ruined paths that cross continuously contribute G(0); jump overshoots
    contribute G(-V) at the exact overshoot.  The ratio interval is widened
    by the uniform (DKW) sampling error of the empirical law.  Fewer than 30
    ruin events leaves the ratio undetermined.
    """
    return ruin_formula_checks(
        t, [z], horizon, n, seed, step=step, g_cdf=g_cdf,
        truncation_eps=truncation_eps,
    )[z]


def ruin_formula_checks(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
    g_cdf: EmpiricalCDF | None = None,
    truncation_eps: float | None = None,
) -> dict[float, RuinFormulaCheck]:
    """Formula validation at several levels off one shared path batch
    (common random numbers across levels)."""
    if g_cdf is None:
        g_cdf = estimate_Zinf_cdf(t, horizon, n, seed, step=step,
                                  truncation_eps=truncation_eps)
    batch = _dispatch_batch(
        t, list(z_list), horizon, n, seed, stream=0, want_terminal=False,
        step=step, truncation_eps=truncation_eps,
    )
    return {
        z: _assemble_formula_check(batch, g_cdf, z, n) for z in z_list
    }


def _assemble_formula_check(batch, g_cdf, z, n) -> RuinFormulaCheck:
    hits = batch.hit[z]
    k = int(hits.sum())
    lo, hi = wilson_interval(k, n)
    lhs = EstimateWithCI(k / n, lo, hi, n, k, {"engine": batch.engine})

    eps_g = math.sqrt(math.log(2.0 / 0.05) / (2.0 * g_cdf.n))
    num = float(g_cdf(-z))
    diag = {
        "G_at_minus_z": num,
        "dkw_eps": eps_g,
        "n_events": k,
        "ks_T_vs_half": g_cdf.diagnostics.get("ks_T_vs_half"),
    }

    if k == 0:
        # Denominator unobserved but bounded by 1: the ratio is at least the
        # numerator; trivially consistent when both sides vanish.
        rhs = EstimateWithCI(
            num, max(0.0, num - eps_g), 1.0 if num + eps_g > 0 else 0.0, n, 0,
            {"note": "no ruin events; denominator bounded by 1"},
        )
        consistent = lhs.ci_low <= rhs.ci_high and rhs.ci_low <= lhs.ci_high
        return RuinFormulaCheck(lhs, rhs, consistent, diag)

    contrib = np.where(
        batch.continuous[z][hits], float(g_cdf(0.0)), 0.0
    )
    v_vals = batch.v_hit[z][hits]
    jump_mask = ~batch.continuous[z][hits]
    if jump_mask.any():
        contrib[jump_mask] = g_cdf(-v_vals[jump_mask])
    den = float(np.mean(contrib))
    se_den = float(np.std(contrib, ddof=1) / math.sqrt(k)) if k > 1 else 0.5
    den_lo = max(1e-12, den - _Z975 * se_den - eps_g)
    den_hi = min(1.0, den + _Z975 * se_den + eps_g)
    point = num / den if den > 0 else math.inf
    rhs_lo = max(0.0, (num - eps_g) / den_hi)
    rhs_hi = min(1.0, (num + eps_g) / den_lo)
    rhs = EstimateWithCI(min(1.0, point), rhs_lo, rhs_hi, n, k, {"denominator": den})

    if k < 30:
        diag["note"] = "fewer than 30 ruin events; ratio undetermined"
        return RuinFormulaCheck(lhs, rhs, None, diag)
    consistent = lhs.ci_low <= rhs.ci_high and rhs.ci_low <= lhs.ci_high
    return RuinFormulaCheck(lhs, rhs, consistent, diag)


def empirical_lower_bound(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
    truncation_eps: float | None = None,
) -> float:
    """Smallest path value seen over all paths and monitored times."""
    engine = _select_engine(t)
    best = math.inf
    if engine == "exact_fv":
        for i in range(n):
            rng = path_rng(seed, i, 0)
            tau, jx, jy = _fv_events(t, horizon, rng)
            _, _, xi_pre, xi_post, z_pre, z_post, z_final, xi_final = _fv_state_arrays(
                t, tau, jx, jy, horizon
            )
            with np.errstate(over="ignore"):
                vals = [math.exp(xi_final) * (z + z_final)]
                if len(tau):
                    vals.append(float(np.min(np.exp(xi_pre) * (z + z_pre))))
                    vals.append(float(np.min(np.exp(xi_post) * (z + z_post))))
            best = min(best, *vals)
        return best
    cfg = PathConfig(horizon, _default_step(horizon, step), seed, truncation_eps)
    for i in range(n):
        p = simulate_pair(t, cfg, i, 0)
        V = compute_V(p, z)
        best = min(best, float(np.min(V)))
    return best


def ruin_records(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
    truncation_eps: float | None = None,
):
    """Per-path first-passage records (hit, time, value at the hit,
    continuous crossing) for external analysis, from the same batch and
    streams as ``estimate_ruin``: the hits are its ruin events.

    ``exact_fv`` reports exact times.  On ``expmart`` and ``grid_bridge``
    the time is the monitored instant that ends the crossing cell, with the
    Brownian-bridge crossing correction of the estimate; on ``grid`` it is
    the first grid instant below zero; ``mixed_grid`` reports its grid or
    jump instant.  Non-ruined paths carry NaN time and value.
    """
    batch = _dispatch_batch(
        t, [z], horizon, n, seed, stream=0, want_terminal=False,
        step=step, truncation_eps=truncation_eps, want_times=True,
    )
    return batch.hit[z], batch.time[z], batch.v_hit[z], batch.continuous[z]
