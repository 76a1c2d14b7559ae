"""Jump-adapted Monte Carlo simulation of the driving pair and the risk path.

The driving pair is simulated on the union of a uniform grid and the exact
jump times, so jump contributions carry no discretization error; only the
interaction of the Brownian/drift part with the discounting factor is
left-point Euler.  At a jump instant the stored pre-jump values feed the
integrand (the integrand of the discounted integral is predictable), and the
post-jump state satisfies the pathwise jump identity

    dV = (e^dxi - 1) V- + e^dxi deta

exactly.

For drivers with no Gaussian part and finitely many jump types the sample
path is piecewise exponential-affine between arrivals, so simulation is
event-driven and exact: segment increments of the discounted integral use
the closed form of the integral of an exponential, first passages inside a
segment are found by solving the scalar linear ODE, and ruin at a jump is
the exact overshoot.

Per-path randomness comes from a counter-based generator keyed by
(seed, path_index); paths are reproducible independently of execution order
and worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidModelError, NotSupportedError
from .model import _HUGE, LevyTriplet2D, _uncompensated_drift, w_transform
from .numerics import BOUNDARY_TOL
from .quadrature import Strip, strips_in_annulus, strips_outside_ball


@dataclass(frozen=True)
class PathConfig:
    """Time horizon, grid spacing, seed, and the density-tier jump cutoff."""

    horizon: float
    step: float
    seed: int
    truncation_eps: float | None = None

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise InvalidModelError("horizon must be positive finite")
        if not (0.0 < self.step <= self.horizon):
            raise InvalidModelError("step must satisfy 0 < step <= horizon")
        if self.truncation_eps is not None and not (self.truncation_eps > 0.0):
            raise InvalidModelError("truncation_eps must be positive")


@dataclass
class Path:
    """Sample path of the pair on the jump-adapted grid.

    Value arrays carry post-jump states; ``xi_left``/``eta_left`` carry the
    left limits, which differ from the values exactly at flagged jumps.
    """

    times: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    xi_left: np.ndarray
    eta_left: np.ndarray
    jump_flags: np.ndarray
    drift: tuple[float, float]
    exact: bool = False

    def n_jumps(self) -> int:
        return int(self.jump_flags.sum())


@dataclass(frozen=True)
class FirstPassage:
    hit: bool
    time: float = math.nan
    v_at_hit: float = math.nan
    continuous_crossing: bool = False


def path_rng(seed: int, path_index: int = 0, stream: int = 0) -> np.random.Generator:
    """Counter-based per-path generator keyed by (seed, stream, path_index);
    independent of draw order elsewhere."""
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(stream), int(path_index))
    )
    return np.random.Generator(np.random.Philox(ss))


def _chol2x2(sigma) -> np.ndarray:
    s11, s12 = sigma[0]
    s22 = sigma[1][1]
    if s11 > 0.0:
        l11 = math.sqrt(s11)
        l21 = s12 / l11
        l22 = math.sqrt(max(0.0, s22 - l21 * l21))
        return np.array([[l11, 0.0], [l21, l22]])
    return np.array([[0.0, 0.0], [0.0, math.sqrt(max(0.0, s22))]])


def _arrival_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Arrival times in (0, horizon] of a Poisson clock of the given rate.

    Stream layout: exponential gaps are drawn in blocks of
    ``max(16, int(1.5 * rate * horizon) + 16)``, and a further block is drawn
    only when every clock of the previous block stayed at or below the
    horizon; a zero rate draws nothing.  The clocks are the running sum of
    the gaps in draw order (one sequential sum, carried across blocks), so
    they do not depend on how the sum is evaluated.
    """
    if rate <= 0.0:
        return np.empty(0)
    budget = max(16, int(rate * horizon * 1.5) + 16)
    parts = []
    clock = 0.0
    while True:
        clocks = rng.exponential(scale=1.0 / rate, size=budget)
        clocks[0] += clock
        np.cumsum(clocks, out=clocks)
        k = int(np.searchsorted(clocks, horizon, side="right"))
        parts.append(clocks[:k])
        if k < budget:
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        clock = clocks[-1]


class _DensityJumpTable(NamedTuple):
    """Path-independent part of density-tier jump sampling."""

    comp: tuple[float, float]  # compensator over eps <= |(x, y)| < 1
    rate: float  # jump rate outside the cutoff ball
    xs: np.ndarray  # cell edges
    ys: np.ndarray
    probs: np.ndarray | None  # cell probabilities; None without mass


def _density_jump_table(t: LevyTriplet2D, cfg: PathConfig) -> _DensityJumpTable | None:
    """Jump table of a density measure truncated below ``cfg.truncation_eps``
    (None on the atom tier).

    Jump sizes are drawn from a 128x128 cell discretization of the density
    outside the cutoff ball; the cell approximation is the documented cost
    of simulating an infinite-activity measure.  The table depends on the
    driver and the cutoff only, so a batch of paths builds it once.
    """
    dens = t.jumps
    if dens.atoms_or_none() is not None:
        return None
    eps = cfg.truncation_eps
    if eps is None:
        raise NotSupportedError(
            "density-tier simulation requires an explicit truncation_eps"
        )
    full = [Strip(-_HUGE, _HUGE, lambda x: -_HUGE, lambda x: _HUGE)]
    outside = strips_outside_ball(full, eps)
    lam = dens.integrate(lambda x, y: 1.0, outside)
    comp_region = strips_in_annulus(full, eps, 1.0)
    comp_x = dens.integrate(lambda x, y: x, comp_region)
    comp_y = dens.integrate(lambda x, y: y, comp_region)

    x0, x1, y0, y1 = dens.box
    nc = 128
    xs = np.linspace(x0, x1, nc + 1)
    ys = np.linspace(y0, y1, nc + 1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    area = (xs[1] - xs[0]) * (ys[1] - ys[0])
    dens_vals = np.vectorize(dens.fn)(gx, gy)
    weights = np.where(gx * gx + gy * gy >= eps * eps, dens_vals, 0.0) * area
    weights = weights.ravel()
    total = weights.sum()
    probs = weights / total if total > 0.0 else None
    return _DensityJumpTable((comp_x, comp_y), lam, xs, ys, probs)


def _truncated_density_jumps(
    table: _DensityJumpTable, rng: np.random.Generator, horizon: float
):
    """Arrival times and sampled jump sizes of one path from a jump table."""
    if table.probs is None:
        return np.empty(0), np.empty((0, 2))
    arrivals = _arrival_times(rng, table.rate, horizon)
    n = len(arrivals)
    if n == 0:
        return arrivals, np.empty((0, 2))
    xs, ys = table.xs, table.ys
    cells = rng.choice(len(table.probs), size=n, p=table.probs)
    ix, iy = np.unravel_index(cells, (len(xs) - 1, len(ys) - 1))
    u = rng.random((n, 2))
    jx = xs[ix] + u[:, 0] * (xs[1] - xs[0])
    jy = ys[iy] + u[:, 1] * (ys[1] - ys[0])
    return arrivals, np.column_stack([jx, jy])


def simulate_pair(
    t: LevyTriplet2D, cfg: PathConfig, path_index: int = 0, stream: int = 0
) -> Path:
    """Sample the driving pair on the jump-adapted grid.

    Brownian increments come from the exact bivariate normal with covariance
    ``Sigma * dt``, jump arrivals are exact exponential clocks merged into
    the grid, and drift is applied in closed form.
    """
    rng = path_rng(cfg.seed, path_index, stream)
    return _simulate_pair_with_rng(t, cfg, rng, _density_jump_table(t, cfg))


def _simulate_pair_with_rng(
    t: LevyTriplet2D,
    cfg: PathConfig,
    rng: np.random.Generator,
    jump_table: _DensityJumpTable | None,
) -> Path:
    """``simulate_pair`` from a given generator; ``jump_table`` is the
    driver's ``_density_jump_table``."""
    atoms = t.jumps.atoms_or_none()
    if atoms is None:
        jump_times, jump_sizes = _truncated_density_jumps(jump_table, rng, cfg.horizon)
        bx = t.gamma_tilde[0] - jump_table.comp[0]
        by = t.gamma_tilde[1] - jump_table.comp[1]
    else:
        bx, by = _uncompensated_drift(t)
        times_list = []
        sizes_list = []
        for a in atoms:
            arr = _arrival_times(rng, a.rate, cfg.horizon)
            times_list.append(arr)
            sizes_list.append(np.tile([a.x, a.y], (len(arr), 1)))
        if times_list:
            jump_times = np.concatenate(times_list)
            jump_sizes = (
                np.concatenate(sizes_list) if jump_times.size else np.empty((0, 2))
            )
            order = np.argsort(jump_times, kind="stable")
            jump_times = jump_times[order]
            jump_sizes = jump_sizes[order]
        else:
            jump_times = np.empty(0)
            jump_sizes = np.empty((0, 2))

    n_steps = int(math.ceil(cfg.horizon / cfg.step - 1e-9))
    grid = np.minimum(np.arange(n_steps + 1) * cfg.step, cfg.horizon)
    grid[-1] = cfg.horizon
    times = np.union1d(grid, jump_times)
    n = len(times)

    jump_x = np.zeros(n)
    jump_y = np.zeros(n)
    flags = np.zeros(n, dtype=bool)
    if jump_times.size:
        idx = np.searchsorted(times, jump_times)
        np.add.at(jump_x, idx, jump_sizes[:, 0])
        np.add.at(jump_y, idx, jump_sizes[:, 1])
        flags[idx] = True

    dt = np.diff(times)
    chol = _chol2x2(t.sigma)
    zmat = rng.standard_normal((len(dt), 2))
    binc = (zmat @ chol.T) * np.sqrt(dt)[:, None]
    bx_path = np.concatenate([[0.0], np.cumsum(binc[:, 0])])
    by_path = np.concatenate([[0.0], np.cumsum(binc[:, 1])])

    xi_left = bx * times + bx_path + np.concatenate([[0.0], np.cumsum(jump_x)[:-1]])
    eta_left = by * times + by_path + np.concatenate([[0.0], np.cumsum(jump_y)[:-1]])
    xi = xi_left + jump_x
    eta = eta_left + jump_y
    return Path(times, xi, eta, xi_left, eta_left, flags, (bx, by))


def compute_Z(p: Path) -> np.ndarray:
    """Discounted integral along the path: between grid points the closed
    form on exact event-driven paths and left-point sums otherwise, plus the
    exact jump contributions with the left-limit integrand."""
    with np.errstate(over="ignore"):
        if p.exact:
            cont = _segment_z_increment(p.xi[:-1], np.diff(p.times), *p.drift)
        else:
            cont = np.exp(-p.xi[:-1]) * (p.eta_left[1:] - p.eta[:-1])
        jump = np.exp(-p.xi_left[1:]) * (p.eta[1:] - p.eta_left[1:])
    return np.concatenate([[0.0], np.cumsum(cont + jump)])


def compute_V(p: Path, z: float, Z: np.ndarray | None = None) -> np.ndarray:
    if Z is None:
        Z = compute_Z(p)
    with np.errstate(over="ignore"):
        return np.exp(p.xi) * (z + Z)


def first_passage(p: Path, z: float, Z: np.ndarray | None = None) -> FirstPassage:
    """First grid or jump instant with a strictly negative path value.

    Crossings between grid points of the continuous part are detected only
    at the next grid point (the estimate errs on the survival side); those
    hits are tagged as continuous crossings.
    """
    V = compute_V(p, z, Z)
    below = V < 0.0
    if not below.any():
        return FirstPassage(False)
    k = int(np.argmax(below))
    return FirstPassage(
        True,
        time=float(p.times[k]),
        v_at_hit=float(V[k]),
        continuous_crossing=not bool(p.jump_flags[k]),
    )


# ---------------------------------------------------------------------------
# Exact event-driven engine for drivers with no Gaussian part
# ---------------------------------------------------------------------------


def _segment_z_increment(xi0: np.ndarray, dt: np.ndarray, bx: float, by: float):
    """Closed-form discounted increment over a jump-free segment."""
    with np.errstate(over="ignore", under="ignore"):
        disc = np.exp(-xi0)
        if abs(bx) < 1e-300:
            return by * disc * dt
        return (by / bx) * disc * -np.expm1(-bx * dt)


def _fv_events(t: LevyTriplet2D, horizon: float, rng: np.random.Generator):
    atoms = t.jumps.atoms_or_none()
    rates = np.array([a.rate for a in atoms])
    total = rates.sum()
    tau = _arrival_times(rng, total, horizon)
    n = len(tau)
    if n and len(atoms) > 1:
        kinds = rng.choice(len(atoms), size=n, p=rates / total)
    else:
        kinds = np.zeros(n, dtype=int)
    jx = np.array([a.x for a in atoms])[kinds]
    jy = np.array([a.y for a in atoms])[kinds]
    return tau, jx, jy


def _require_fv(t: LevyTriplet2D):
    if t.jumps.atoms_or_none() is None:
        raise NotSupportedError("event-driven engine requires the atom tier")
    if any(abs(v) > BOUNDARY_TOL for row in t.sigma for v in row):
        raise NotSupportedError("event-driven engine requires a zero Gaussian part")


def _fv_state_arrays(t, tau, jx, jy, horizon):
    """Pre/post jump states at every arrival plus the horizon endpoint."""
    bx, by = _uncompensated_drift(t)
    xi_pre = bx * tau + np.concatenate([[0.0], np.cumsum(jx)[:-1]])
    xi_post = xi_pre + jx
    seg_start_xi = np.concatenate([[0.0], xi_post])
    seg_dt = np.diff(np.concatenate([[0.0], tau, [horizon]]))
    seg_inc = _segment_z_increment(seg_start_xi, seg_dt, bx, by)
    with np.errstate(over="ignore"):
        jump_inc = np.exp(-xi_pre) * jy
    z_pre = np.cumsum(seg_inc[:-1]) + np.concatenate([[0.0], np.cumsum(jump_inc)[:-1]])
    z_post = z_pre + jump_inc
    z_final = (z_post[-1] if len(tau) else 0.0) + seg_inc[-1]
    xi_final = (xi_post[-1] if len(tau) else 0.0) + bx * seg_dt[-1]
    return bx, by, xi_pre, xi_post, z_pre, z_post, z_final, xi_final


def _segment_crossing_time(v0: float, bx: float, by: float) -> float:
    """Exact time at which the jump-free flow from v0 >= 0 reaches zero."""
    if abs(bx) < 1e-300:
        return v0 / -by
    v_star = -by / bx
    return math.log(v_star / (v_star - v0)) / bx


def _fv_passage(z: float, tau, state, want_time: bool = True) -> FirstPassage:
    """First passage below zero from the event states of one exact path.

    Between arrivals the path solves a scalar linear ODE and is monotone, so
    checking the pre-jump, post-jump, and horizon states detects every
    crossing; continuous crossing times are solved in closed form, and only
    when ``want_time`` is set (the time is NaN otherwise).
    """
    bx, by, _, xi_post, z_pre, z_post, z_final, _ = state
    pre_hit = z + z_pre < 0.0
    hits = pre_hit | (z + z_post < 0.0)
    if hits.any():
        k = int(np.argmax(hits))
        if not pre_hit[k]:
            v_hit = math.exp(xi_post[k]) * (z + z_post[k])
            return FirstPassage(True, float(tau[k]), v_hit, continuous_crossing=False)
    elif z + z_final < 0.0:
        k = len(tau)
    else:
        return FirstPassage(False)
    # continuous crossing inside the segment that starts at arrival k - 1
    t_cross = math.nan
    if want_time:
        start = tau[k - 1] if k else 0.0
        v_start = math.exp(xi_post[k - 1] if k else 0.0) * (
            z + (z_post[k - 1] if k else 0.0)
        )
        t_cross = start + _segment_crossing_time(v_start, bx, by)
    return FirstPassage(True, t_cross, 0.0, continuous_crossing=True)


def _fv_path_states(t: LevyTriplet2D, horizon: float, rng: np.random.Generator):
    """Arrival times and ``_fv_state_arrays`` of one exact path."""
    tau, jx, jy = _fv_events(t, horizon, rng)
    return tau, _fv_state_arrays(t, tau, jx, jy, horizon)


def fv_first_passage(
    t: LevyTriplet2D, z: float, horizon: float, rng: np.random.Generator
) -> FirstPassage:
    """Exact first passage below zero for a zero-Gaussian atom driver."""
    _require_fv(t)
    return _fv_passage(z, *_fv_path_states(t, horizon, rng))


def exact_fv_path(t: LevyTriplet2D, cfg: PathConfig, path_index: int = 0) -> Path:
    """Full exact path of a zero-Gaussian atom driver on grid + jump times."""
    _require_fv(t)
    rng = path_rng(cfg.seed, path_index)
    tau, jx, jy = _fv_events(t, cfg.horizon, rng)
    bx, by = _uncompensated_drift(t)

    n_steps = int(math.ceil(cfg.horizon / cfg.step - 1e-9))
    grid = np.minimum(np.arange(n_steps + 1) * cfg.step, cfg.horizon)
    grid[-1] = cfg.horizon
    times = np.union1d(grid, tau)
    n = len(times)

    jump_x = np.zeros(n)
    jump_y = np.zeros(n)
    flags = np.zeros(n, dtype=bool)
    if len(tau):
        idx = np.searchsorted(times, tau)
        np.add.at(jump_x, idx, jx)
        np.add.at(jump_y, idx, jy)
        flags[idx] = True

    xi_left = bx * times + np.concatenate([[0.0], np.cumsum(jump_x)[:-1]])
    eta_left = by * times + np.concatenate([[0.0], np.cumsum(jump_y)[:-1]])
    return Path(
        times, xi_left + jump_x, eta_left + jump_y, xi_left, eta_left, flags,
        (bx, by), exact=True,
    )


# ---------------------------------------------------------------------------
# Validation constructions
# ---------------------------------------------------------------------------


def brownian_part(p: Path) -> np.ndarray:
    """Recover the Brownian component of xi from a stored path."""
    cum_jumps = np.cumsum(p.xi - p.xi_left)
    return p.xi - p.drift[0] * p.times - cum_jumps


def closed_form_continuous_example(c: float, B: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact discounted integral of the continuous preset: driven by the same
    Brownian draw, the integral is a pointwise function of it and never goes
    below -1."""
    return np.expm1(-(B + c * times))


def simulate_stochastic_exponential(t: LevyTriplet2D, p: Path) -> np.ndarray:
    """Stochastic-exponential path built from the same randomness as xi.

    Uses the product formula with the Brownian part negated, jumps mapped by
    x -> e^-x - 1, and the drift pinned by the transform; the result must
    reproduce exp(-xi) to floating accuracy.
    """
    bw = _uncompensated_drift(w_transform(t))[1]
    sigma2 = t.sigma_xi2
    B = brownian_part(p)
    dxi = p.xi - p.xi_left
    w_inc = np.where(p.jump_flags, np.expm1(-dxi), 0.0)
    w_path = bw * p.times - B + np.cumsum(w_inc)
    log_corr = np.cumsum(np.where(p.jump_flags, np.log1p(w_inc) - w_inc, 0.0))
    return np.exp(w_path - 0.5 * sigma2 * p.times + log_corr)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_path_csv(p: Path, z: float, fh, Z: np.ndarray | None = None) -> None:
    """One row per grid/jump point: time,xi,eta,Z,V,jump."""
    if Z is None:
        Z = compute_Z(p)
    V = compute_V(p, z, Z)
    writer = csv.writer(fh)
    writer.writerow(["time", "xi", "eta", "Z", "V", "jump"])
    for k in range(len(p.times)):
        writer.writerow(
            [
                f"{p.times[k]:.12g}",
                f"{p.xi[k]:.12g}",
                f"{p.eta[k]:.12g}",
                f"{Z[k]:.12g}",
                f"{V[k]:.12g}",
                int(p.jump_flags[k]),
            ]
        )
