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
checks, the per-path records and the empirical lower bound all read the
same batch of paths.

The Gaussian grid engines stream: a chunk of paths walks the grid in fixed
time blocks with per-path running state, so memory does not grow with the
horizon, and stops once every path is ruined at every level.  Requests for
terminal values only (``estimate_negative_prob``, ``estimate_Zinf_cdf``)
draw two normals per path on ``grid_bridge`` and ``expmart``, where the
mid-horizon and terminal grid values are jointly Gaussian (in xi): the same
law as the grid, from different draws.

No estimate is computed from an overflowed value, on any engine: a path
decides its levels from its finite prefix, and a path whose Z or xi turns
non-finite before it is ruined at every requested level (before the horizon,
for the lower bound), or whose terminal value is non-finite, is counted as a
non-finite path and makes the estimator raise ``UndeterminedError``; it
never counts as survival.

Ruin is an infinite-horizon quantity; estimates are over a finite horizon
and therefore estimate it from below.  When the discounted integral is known
to converge, a tail diagnostic (fraction of surviving paths ending within
eps of the ruin boundary) quantifies the truncation risk.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict, z_infinity_converges
from .errors import InvalidModelError, NotApplicableError, UndeterminedError
from .model import LevyTriplet2D, rigid_level, xi_brownian
from .numerics import BOUNDARY_TOL
from .simulate import (
    PathConfig,
    _chol2x2,
    _density_jump_table,
    _EulerChunk,
    _fv_events,
    _fv_state_arrays,
    _pair_jumps,
    _require_fv,
    _uniform_grid,
    is_exact_fv,
    path_rng,
)

_Z975 = 1.959963984540054

#: Paths per block of the per-path engines (exact_fv, mixed_grid), the unit
#: of work of a thread.  Fixed, so the chunking never depends on the worker
#: count.
_PATH_BLOCK = 64

#: Float64 elements of the widest array of a per-path engine's chunk: a
#: block is cut into chunks of as many paths as fit, and a path wider than
#: this makes a chunk alone, so chunk memory does not grow with the horizon.
#: 64 KB per array stays well under glibc's 128 KB mmap threshold, near
#: which every temporary of a chunk page-faults.
_CHUNK_ELEMS = 8_192

#: Paths per chunk of the Gaussian grid kernel, and grid steps per time
#: block of its streamed pass: a chunk holds a few rows x block arrays.
_GRID_ROWS = 256
_GRID_STEPS = 1024

#: Largest bridge exponent a hash uniform can produce (u >= 2^-53).
_Q_MAX = 0.5 * 53.0 * math.log(2.0)


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

    def __init__(self, values):
        self.values = np.sort(np.asarray(values, dtype=float))
        self.diagnostics: dict = {}

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
    levels; ``time`` is filled only when the caller asks for times,
    ``v_min`` (each path's minimum of V = e^xi (z + Z) over its monitored
    instants) only when it asks for the minimum at a level ``min_at``, and
    ``nonfinite`` counts paths that turned non-finite before they were
    decided.

    ``z_T`` holds Z at the horizon of every path that is not ruined at every
    level; the Gaussian grid engines give NaN for the others, and for a
    path counted in ``nonfinite``, since such a path may stop drawing.
    ``z_half`` holds Z at half the horizon where it comes at no extra cost:
    on the Gaussian grid engines alongside ``z_T``, and on the per-path
    engines for requests with no levels and no ``min_at``."""

    hit: dict[float, np.ndarray]
    v_hit: dict[float, np.ndarray]
    continuous: dict[float, np.ndarray]
    time: dict[float, np.ndarray]
    z_T: np.ndarray
    z_half: np.ndarray | None
    engine: str
    nonfinite: int = 0
    v_min: np.ndarray | None = None

    def records(self, z: float):
        """(hit, time, value at the hit, continuous crossing) per path at z."""
        return self.hit[z], self.time[z], self.v_hit[z], self.continuous[z]


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
    u0 = rigid_level(t.sigma)
    if u0 is None or abs(u0) <= BOUNDARY_TOL:
        return None
    target = u0 * (0.5 * t.sigma[0][0] - t.gamma_tilde[0])
    if abs(t.gamma_tilde[1] - target) > BOUNDARY_TOL * max(1.0, abs(target)):
        return None
    return u0


def _select_engine(t: LevyTriplet2D) -> str:
    """Canonical engine name of a driver, as the reports print it."""
    if is_exact_fv(t):
        return "exact_fv"
    atoms = t.jumps.atoms_or_none()
    if atoms is not None and len(atoms) == 0:
        if _is_expmart(t) is not None:
            return "expmart"
        return "grid" if xi_brownian(t) else "grid_bridge"
    return "mixed_grid"


def _chunk_ranges(n: int, chunk: int):
    return [(i, min(i + chunk, n)) for i in range(0, n, chunk)]


def _run_chunks(fn, ranges):
    workers = worker_count()
    if workers <= 1 or len(ranges) <= 1:
        return [fn(r) for r in ranges]
    from concurrent.futures import ThreadPoolExecutor

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
    engine: str,
    want_times: bool = False,
    min_at: float | None = None,
) -> _BatchResult:
    """No-jump drivers (``expmart``, ``grid_bridge``, ``grid``): one streamed
    pass per chunk of ``_GRID_ROWS`` paths over time blocks of
    ``_GRID_STEPS`` grid steps, so memory is O(rows x block) whatever the
    horizon.

    Each path keeps its own generator across blocks, and the running sums
    carry from block to block, so the grid values are those of one
    sequential cumulative sum.  Per level, a path is ruined at the first
    grid instant past the level or at the right end of an earlier cell whose
    exact Brownian-bridge extreme passes it (deterministic xi, or the
    closed-form regime in xi space); the extreme is solved from the cell's
    hash uniform.  Bridge cells are examined only where the cell's end
    values come within ``sqrt(q_max * var)`` of the lowest level the path
    has not passed yet, the largest distance an extreme can reach.  Levels
    nest, so common random numbers and monotonicity in the level are
    structural.  Crossings are continuous (no jumps), so the overshoot
    value is identically zero and is never stored.  A path ruined at every
    level stops drawing unless the minimum is wanted, and its terminal
    values are NaN.  The minimum of V at ``min_at`` is taken over the grid
    instants, with xi = gamma_xi t on ``grid_bridge``.

    A path's levels come from its finite prefix only: a path whose values
    turn non-finite before it passes every level (before the horizon, when
    the minimum is wanted) is counted in ``nonfinite`` and never counts as
    surviving the levels it missed.

    Terminal-only requests (no levels) on ``grid_bridge`` and ``expmart``
    draw two normals per path: the grid values at ``half_idx`` and at the
    horizon are jointly Gaussian there (in xi on ``expmart``), with the
    covariance of the grid sums, so the law is that of the grid.
    """
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps
    times = np.arange(n_steps + 1) * h
    times_or_nan = np.append(times, math.nan)
    half_idx = n_steps // 2
    gx, gy = t.gamma_tilde
    s11 = t.sigma[0][0]
    s22 = t.sigma[1][1]
    sigma_xi, l21, l22 = _chol2x2(t.sigma)
    sqh = math.sqrt(h)
    levels = sorted(set(z_list))
    n_levels = len(levels)
    u0 = _is_expmart(t) if engine == "expmart" else None

    # overflow here is caught by the finite-prefix rule
    with np.errstate(over="ignore", invalid="ignore"):
        if engine == "grid_bridge":
            disc = np.exp(-(gx * times[:-1]))
            w_vec = disc * math.sqrt(max(0.0, s22)) * math.sqrt(h)
            det_prefix = np.concatenate([[0.0], np.cumsum(disc * gy * h)])
            var = w_vec * w_vec
        elif engine == "expmart":
            var = np.full(n_steps, s11 * h)
        else:
            var = None
        prec = None if var is None else np.sqrt(_Q_MAX * var)

    # Paths march in "path space" (Z, or xi on expmart); ``fire`` maps path
    # values to -Z, which ruins at level z once it exceeds z.  ``upper``:
    # path values rise toward ruin.
    if u0 is None:
        upper = False
        fire = np.negative
        path_level = [-z for z in levels]
    else:
        # -Z = u0 (1 - e^-xi) rises with xi when u0 > 0, falls otherwise;
        # levels -Z never reaches (or always exceeds) map to +inf.
        upper = u0 > 0.0
        path_level = [
            math.inf if -z / u0 <= -1.0 else -math.log1p(-z / u0) for z in levels
        ]

        def fire(x):
            with np.errstate(over="ignore"):
                return u0 * -np.expm1(-x)

    if not levels and min_at is None and engine != "grid":
        # two normals per path: the Gaussian sums at half_idx and at the
        # horizon (in xi on expmart); overflow leaves non-finite values,
        # which the estimators refuse
        with np.errstate(over="ignore", invalid="ignore"):
            if engine == "grid_bridge":
                head, full = _endpoint_sums(
                    n, seed, stream, var[:half_idx].sum(), var[half_idx:].sum()
                )
                z_half, z_T = det_prefix[half_idx] + head, det_prefix[-1] + full
            else:
                head, full = _endpoint_sums(
                    n, seed, stream, s11 * h * half_idx, s11 * h * (n_steps - half_idx)
                )
                z_half = -fire(gx * times[half_idx] + head)
                z_T = -fire(gx * times[-1] + full)
        return _BatchResult({}, {}, {}, {}, z_T, z_half, engine)

    # a row with every level passed gets a threshold no value can pass
    row_level = np.array(path_level + [math.inf if upper else -math.inf])
    extreme = np.max if upper else np.min

    def advance(gens, s, e, carry):
        """Path values and xi at grid instants s..e of the rows whose
        generators are ``gens``; ``carry`` holds their running sums at
        instant s."""
        w = e - s
        rows = len(gens)
        if engine == "grid_bridge":
            S = np.empty((rows, w + 1))
            S[:, 0] = carry[0]
            for j, g in enumerate(gens):
                g.standard_normal(out=S[j, 1:])
            np.multiply(S[:, 1:], w_vec[s:e], out=S[:, 1:])
            np.cumsum(S, axis=1, out=S)
            carry[0] = S[:, -1].copy()
            return S + det_prefix[s:e + 1], gx * times[s:e + 1]
        normals = np.empty((rows, w, 2))
        for j, g in enumerate(gens):
            g.standard_normal(out=normals[j])
        X = np.empty((rows, w + 1))
        X[:, 0] = carry[0]
        np.multiply(normals[:, :, 0], sigma_xi * sqh, out=X[:, 1:])
        np.cumsum(X, axis=1, out=X)
        carry[0] = X[:, -1].copy()
        xi = X + gx * times[s:e + 1]
        if u0 is not None:
            return xi, xi
        eta_inc = gy * h + (l21 * normals[:, :, 0] + l22 * normals[:, :, 1]) * sqh
        Z = np.empty((rows, w + 1))
        Z[:, 0] = carry[1]
        np.multiply(np.exp(-xi[:, :-1]), eta_inc, out=Z[:, 1:])
        np.cumsum(Z, axis=1, out=Z)
        carry[1] = Z[:, -1].copy()
        return Z, xi

    def cells(sub, thr, end, ids, s, e):
        """Bridge extremes of the cells c < end - 1 (per row) whose end
        values come within ``prec`` of ``thr`` (per row): no other cell's
        extreme passes ``thr``.  ``ids`` are the rows' path indices."""
        if upper:
            cand = np.maximum(sub[:, :-1], sub[:, 1:]) > thr[:, None] - prec[s:e]
        else:
            cand = np.minimum(sub[:, :-1], sub[:, 1:]) < thr[:, None] + prec[s:e]
        cand &= np.arange(1, e - s + 1)[None, :] < end[:, None]
        r, c = np.nonzero(cand)
        left = sub[r, c]
        right = sub[r, c + 1]
        u = _hash_uniforms(seed, stream, 0, ids[r] * (n_steps + 1) + s + c)
        q = -0.5 * np.log(np.maximum(u, 2.0 ** -53))
        half = 0.5 * (left - right)
        mid = 0.5 * (left + right)
        with np.errstate(over="ignore", invalid="ignore"):
            root = np.sqrt(half * half + q * var[s + c])
            return r, c, (mid + root if upper else mid - root)

    levels_arr = np.array(levels)

    def run(rng_range):
        i0, i1 = rng_range
        m = i1 - i0
        gens = [path_rng(seed, i, stream) for i in range(i0, i1)]
        first = np.full((n_levels, m), n_steps + 1) if want_times else None
        passed = np.zeros(m, dtype=np.intp)  # levels passed (they nest)
        nonfinite = np.zeros(m, dtype=bool)
        zT = np.full(m, math.nan)
        zH = np.full(m, math.nan)
        low = np.full(m, math.inf)  # the minimum of V at min_at
        overflow = np.zeros(m, dtype=bool)  # non-finite before the horizon
        live = np.arange(m)
        carry = [np.zeros(m), np.zeros(m)]

        def cross(sub, rows, top, s, e):
            """Levels passed inside block s..e by the chunk rows ``rows``,
            whose path values there are ``sub`` with extreme ``top``."""
            w = e - s
            old = passed[rows]
            ids = i0 + rows
            fin = np.isfinite(sub)
            cut = np.full(len(rows), w + 1)
            for i in np.flatnonzero(~fin.all(axis=1)):  # keep the finite prefix
                cut[i] = fin[i].argmin()
                top[i] = extreme(sub[i, :cut[i]])
            # a level falls when the extreme passes it, or a cell's bridge
            # extreme does (only cells near the next level can)
            new = np.maximum(old, np.searchsorted(levels_arr, fire(top)))
            lost = np.zeros(len(rows), dtype=bool)
            if prec is not None:
                r, _, ext = cells(sub, row_level[new], cut, ids, s, e)
                bad = ~np.isfinite(ext)  # overflowed: the cell is undecided
                lost[r[bad]] = True
                np.maximum.at(new, r[~bad], np.searchsorted(levels_arr, fire(ext[~bad])))
            if want_times:
                ruin = fire(sub)
                inside = np.arange(w + 1)[None, :] < cut[:, None]
                for k in range(old.min(), new.max()):
                    sel = np.flatnonzero((old <= k) & (new > k))
                    past = (ruin[sel] > levels[k]) & inside[sel]
                    at = np.where(past.any(axis=1), past.argmax(axis=1), w + 1)
                    if prec is not None:
                        # cells before the first grid instant past the level
                        thr = np.full(len(sel), row_level[k])
                        r, c, ext = cells(sub[sel], thr, np.minimum(at, cut[sel]), ids[sel], s, e)
                        fired = np.isfinite(ext) & (fire(ext) > levels[k])
                        np.minimum.at(at, r[fired], c[fired] + 1)
                    first[k, rows[sel]] = s + at
            passed[rows] = new
            nonfinite[rows] |= ((cut <= w) | lost) & (new < n_levels)

        for s in range(0, n_steps, _GRID_STEPS):
            e = min(n_steps, s + _GRID_STEPS)
            with np.errstate(over="ignore", invalid="ignore"):  # the finite-prefix rule
                P, xi = advance([gens[j] for j in live], s, e, carry)
            for idx, out in ((half_idx, zH), (n_steps, zT)):
                if s <= idx <= e:
                    out[live] = -fire(P[:, idx - s])
            if min_at is not None:
                Z = P if u0 is None else -fire(P)
                with np.errstate(over="ignore", invalid="ignore"):
                    low[live] = np.minimum(low[live], (np.exp(xi) * (min_at + Z)).min(axis=1))
                overflow[live] |= ~(np.isfinite(Z) & np.isfinite(xi)).all(axis=1)
            if not n_levels:
                continue
            undecided = (passed[live] < n_levels) & ~nonfinite[live]
            thr = row_level[passed[live]]
            margin = 0.0 if prec is None else prec[s:e].max()
            ext = extreme(P, axis=1)
            with np.errstate(invalid="ignore"):
                near = ext > thr - margin if upper else ext < thr + margin
            near |= ~np.isfinite(ext) | ~np.isfinite(P[:, -1])
            near &= undecided
            if near.any():
                cross(P[near], live[near], ext[near], s, e)
                undecided = (passed[live] < n_levels) & ~nonfinite[live]
            if min_at is None and not undecided.all():
                live = live[undecided]
                carry = [c[undecided] for c in carry]
                if not len(live):
                    break
        if n_levels and min_at is None:  # decided paths may have stopped drawing
            done = (passed == n_levels) | nonfinite
            zT[done] = zH[done] = math.nan
        return passed, first, int((nonfinite | overflow).sum()), zT, zH, low

    parts = _run_chunks(run, _chunk_ranges(n, _GRID_ROWS))
    zT = np.concatenate([p[3] for p in parts])
    zH = np.concatenate([p[4] for p in parts])
    res = _BatchResult({}, {}, {}, {}, zT, zH, engine, sum(p[2] for p in parts))
    if min_at is not None:
        res.v_min = np.concatenate([p[5] for p in parts])
    passed = np.concatenate([p[0] for p in parts])
    for k, z in enumerate(levels):
        hz = passed > k
        res.hit[z] = hz
        res.v_hit[z] = np.where(hz, 0.0, math.nan)
        res.continuous[z] = hz
        if want_times:
            res.time[z] = times_or_nan[np.concatenate([p[1][k] for p in parts])]
    return res


def _endpoint_sums(n, seed, stream, var_head, var_tail):
    """Two Gaussian sums per path from its first two normals: one of
    variance ``var_head`` and that sum plus an independent one of variance
    ``var_tail``."""
    g = np.empty((n, 2))

    def draw(rng_range):
        for i in range(*rng_range):
            g[i] = path_rng(seed, i, stream).standard_normal(2)

    _run_chunks(draw, _chunk_ranges(n, _GRID_ROWS))
    head = np.sqrt(var_head) * g[:, 0]
    return head, head + np.sqrt(var_tail) * g[:, 1]


def _per_path_batch(
    engine, draw, build, z_list, horizon, n, seed, stream, want_times, min_at
) -> _BatchResult:
    """The batch of the per-path engines.  Each path draws from its own
    generator: ``draw(rng)`` gives the elements per row of the widest chunk
    array and the draws.  The paths of a block join a chunk in order until
    the next one would take its widest array past ``_CHUNK_ELEMS``; then
    ``build`` turns the chunk's draws into padded rows, reduced at every
    level at once.  A path that is not finite (``chunk.finite``) keeps only
    its finite prefix, and counts in ``nonfinite`` when a level is not
    ruined there or ``min_at`` is set."""
    levels = np.array(sorted(set(z_list)), dtype=float)
    n_levels = len(levels)
    want_half = not n_levels and min_at is None
    hit = np.zeros((n_levels, n), dtype=bool)
    continuous = np.zeros((n_levels, n), dtype=bool)
    v_hit = np.full((n_levels, n), math.nan)
    time = np.full((n_levels, n), math.nan)
    res = _BatchResult(
        {}, {}, {}, {},
        np.empty(n),
        np.empty(n) if want_half else None,
        engine,
        v_min=None if min_at is None else np.empty(n),
    )
    nonfinite = np.zeros(n, dtype=bool)

    def reduce(i0, draws):
        chunk = build(draws)
        rows = slice(i0, i0 + len(draws))
        res.z_T[rows] = chunk.z_T
        if want_half:
            res.z_half[rows] = chunk.z_at(0.5 * horizon)
        passed = 0
        if n_levels:
            level, r, t_hit, value, cont, passed = chunk.first_crossings(levels, want_times)
            r += i0
            hit[level, r] = True
            v_hit[level, r] = value
            continuous[level, r] = cont
            time[level, r] = t_hit
        if min_at is not None:
            res.v_min[rows] = chunk.lowest(min_at)
        nonfinite[rows] = ~chunk.finite & ((min_at is not None) | (passed < n_levels))
        return chunk

    def run(rng_range):
        # ``chunk`` keeps the last chunk until the next one is built, so the
        # allocator reuses its memory; freed at once, the chunk's arrays
        # would go back to the system and fault in again for the next one.
        i0, i1 = rng_range
        chunk, draws, top = None, [], 0
        for i in range(i0, i1):
            width, d = draw(path_rng(seed, i, stream))
            top = max(top, width)
            if draws and (len(draws) + 1) * top > _CHUNK_ELEMS:
                chunk = reduce(i - len(draws), draws)
                draws, top = [], width
            draws.append(d)
        reduce(i1 - len(draws), draws)

    _run_chunks(run, _chunk_ranges(n, _PATH_BLOCK))
    for k, z in enumerate(levels.tolist()):
        res.hit[z], res.v_hit[z], res.continuous[z] = hit[k], v_hit[k], continuous[k]
        if want_times:
            res.time[z] = time[k]
    res.nonfinite = int(nonfinite.sum())
    return res


def _fv_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    n: int,
    seed: int,
    stream: int,
    want_times: bool = False,
    min_at: float | None = None,
) -> _BatchResult:
    """Event-driven exact batch for zero-Gaussian atom drivers."""
    _require_fv(t)

    def draw(rng):
        events = _fv_events(t, horizon, rng)
        return len(events[0]) + 2, events

    return _per_path_batch(
        "exact_fv", draw, lambda draws: _fv_state_arrays(t, draws, horizon),
        z_list, horizon, n, seed, stream, want_times, min_at,
    )


def _mixed_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    step: float,
    n: int,
    seed: int,
    stream: int,
    truncation_eps: float | None,
    want_times: bool = False,
    min_at: float | None = None,
) -> _BatchResult:
    """General driver: jump-adapted Euler simulation.  A row's widest
    arrays hold one value per instant of its grid."""
    cfg = PathConfig(horizon, step, seed, truncation_eps)
    jump_table = _density_jump_table(t, cfg)
    grid_len = len(_uniform_grid(cfg))

    def draw(rng):
        arrivals, sizes = _pair_jumps(t, jump_table, rng, horizon)
        return grid_len + sum(map(len, arrivals)), (rng, arrivals, sizes)

    return _per_path_batch(
        "mixed_grid", draw, lambda draws: _EulerChunk(t, cfg, jump_table, draws),
        z_list, horizon, n, seed, stream, want_times, min_at,
    )


def _require_finite(nonfinite: int, n: int) -> None:
    """A path that turned non-finite before its question was answered makes
    the estimate undetermined; it never counts as survival."""
    if nonfinite:
        raise UndeterminedError(
            f"nonfinite_paths={nonfinite} of {n}: the simulated values overflowed "
            "before the paths could be decided; shorten the horizon"
        )


def _dispatch_batch(
    t, z_list, horizon, n, seed, stream, step=None, truncation_eps=None, want_times=False,
    min_at=None,
) -> _BatchResult:
    """The batch of the driver's engine; the one place that checks the
    horizon, the path count and the step of outside input."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise InvalidModelError(f"horizon must be positive and finite, got {horizon}")
    if n < 1:
        raise InvalidModelError(f"the number of paths must be at least 1, got {n}")
    if step is not None and not (step > 0.0 and math.isfinite(step)):
        raise InvalidModelError(f"step must be positive and finite, got {step}")
    engine = _select_engine(t)
    if engine == "exact_fv":
        return _fv_batch(t, z_list, horizon, n, seed, stream, want_times, min_at)
    step = min(0.01, horizon / 100.0) if step is None else step
    if engine == "mixed_grid":
        return _mixed_batch(
            t, z_list, horizon, step, n, seed, stream, truncation_eps, want_times, min_at
        )
    return _gaussian_grid_batch(
        t, z_list, horizon, step, n, seed, stream, engine, want_times, min_at
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
    return _ruin_estimate(t, z, horizon, n, seed, step, truncation_eps, tail_eps)[0]


def _ruin_estimate(
    t, z, horizon, n, seed, step, truncation_eps, tail_eps=0.05, want_times=False
) -> tuple[EstimateWithCI, _BatchResult]:
    """``estimate_ruin`` and the batch it reduces.  ``want_times`` only adds
    the crossing times, so the records of this batch describe the paths of
    the estimate."""
    batch = _dispatch_batch(
        t, [z], horizon, n, seed, stream=0, step=step, truncation_eps=truncation_eps,
        want_times=want_times,
    )
    _require_finite(batch.nonfinite, n)
    hits = batch.hit[z]
    k = int(hits.sum())
    lo, hi = wilson_interval(k, n)
    diag = {
        "horizon": horizon,
        "engine": batch.engine,
        "estimates_infinite_horizon_from_below": True,
        "nonfinite_paths": 0,
    }
    if z_infinity_converges(t) is Verdict.YES:  # every survivor has its z_T
        survivors = ~hits
        near = np.sum((z + batch.z_T[survivors]) < tail_eps)
        diag["tail_near_ruin_fraction"] = float(near / max(1, survivors.sum()))
        diag["tail_eps"] = tail_eps
    return EstimateWithCI(k / n, lo, hi, n, k, diag), batch


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
        t, [], T, n, seed, stream=0, step=step, truncation_eps=truncation_eps
    )
    _require_finite(int(np.count_nonzero(~np.isfinite(batch.z_T))), n)
    k = int(np.sum(batch.z_T < 0.0))
    lo, hi = wilson_interval(k, n)
    return EstimateWithCI(
        k / n, lo, hi, n, k, {"T": T, "engine": batch.engine, "nonfinite_paths": 0}
    )


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
        t, [], T, n, seed, stream=1, step=step, truncation_eps=truncation_eps
    )
    _require_finite(
        int(np.count_nonzero(~(np.isfinite(batch.z_T) & np.isfinite(batch.z_half)))), n
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
        t, list(z_list), horizon, n, seed, stream=0, step=step, truncation_eps=truncation_eps
    )
    _require_finite(batch.nonfinite, n)
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
    """Smallest V = e^xi (z + Z) over the paths and monitored instants of
    the batch and streams of ``estimate_ruin``: the Monte Carlo side of
    delta(z).  The instants are the pre-jump, post-jump and horizon states
    on ``exact_fv`` (exact: the path is monotone between them), the grid on
    the Gaussian grid engines (xi = gamma_xi t on ``grid_bridge``) and the
    jump-adapted grid on ``mixed_grid``.  A path whose Z or xi turns
    non-finite before the horizon makes the bound undetermined."""
    batch = _dispatch_batch(
        t, [], horizon, n, seed, stream=0, step=step, truncation_eps=truncation_eps, min_at=z
    )
    _require_finite(batch.nonfinite, n)
    return float(batch.v_min.min())


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
        t, [z], horizon, n, seed, stream=0, step=step, truncation_eps=truncation_eps,
        want_times=True,
    )
    _require_finite(batch.nonfinite, n)
    return batch.records(z)
