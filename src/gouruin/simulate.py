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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidModelError, NotSupportedError
from .model import LevyTriplet2D, _uncompensated_drift, w_transform, zero_gaussian
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
    left limits, which differ from the values exactly at flagged jumps.  The
    chunk builders hold several paths in one ``Path`` of 2-d arrays: one row
    per path, padded past the row's own length.
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

    def row(self, r: int, length: int) -> Path:
        """Path of row ``r`` of a chunk, cut to its ``length`` instants."""
        cut = (r, slice(0, length))
        return Path(
            self.times[cut], self.xi[cut], self.eta[cut], self.xi_left[cut],
            self.eta_left[cut], self.jump_flags[cut], self.drift, self.exact,
        )


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


def _chol2x2(sigma) -> tuple[float, float, float]:
    """Entries (l11, l21, l22) of the lower Cholesky factor of a 2x2
    covariance; a degenerate first row leaves l11 = l21 = 0."""
    s11, s12 = sigma[0]
    s22 = sigma[1][1]
    if s11 > 0.0:
        l11 = math.sqrt(s11)
        l21 = s12 / l11
        return l11, l21, math.sqrt(max(0.0, s22 - l21 * l21))
    return 0.0, 0.0, math.sqrt(max(0.0, s22))


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
    full = [Strip()]
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


def _pair_jumps(t: LevyTriplet2D, jump_table: _DensityJumpTable | None, rng, horizon):
    """One path's jump draws for ``simulate_pair``: the arrival times of
    each atom (sizes None), or the arrivals of the density jump table and
    one sampled size per arrival."""
    if jump_table is not None:
        times, sizes = _truncated_density_jumps(jump_table, rng, horizon)
        return [times], sizes
    return [_arrival_times(rng, a.rate, horizon) for a in t.jumps.atoms_or_none()], None


def _pair_chunk_jumps(t: LevyTriplet2D, draws):
    """The jumps of a chunk from each row's ``_pair_jumps`` draws, by row
    and by time within a row (jumps at one instant keep their draw order):
    the arrival time, row and size (x, y) of each."""
    parts = [p for arrivals, _ in draws for p in arrivals]
    if not parts:
        return np.empty(0), np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
    counts = [len(p) for p in parts]
    per_row = len(parts) // len(draws)
    times = np.concatenate(parts)
    rows = np.repeat(np.arange(len(parts)) // per_row, counts)
    if draws[0][1] is None:  # atoms: the size of the atom of each part
        atoms = t.jumps.atoms_or_none()
        kind = np.repeat(np.arange(len(parts)) % per_row, counts)
        x, y = np.array([a.x for a in atoms])[kind], np.array([a.y for a in atoms])[kind]
    else:
        sizes = np.concatenate([s for _, s in draws])
        x, y = sizes[:, 0], sizes[:, 1]
    order = np.lexsort((times, rows))
    return times[order], rows[order], x[order], y[order]


def _uniform_grid(cfg: PathConfig) -> np.ndarray:
    """The uniform grid of ``cfg``, ending exactly at the horizon."""
    n_steps = int(math.ceil(cfg.horizon / cfg.step - 1e-9))
    grid = np.minimum(np.arange(n_steps + 1) * cfg.step, cfg.horizon)
    grid[-1] = cfg.horizon
    return grid


def _jump_adapted_grid(cfg: PathConfig, jumps, n_rows: int):
    """Each row's uniform grid of ``cfg`` merged with its jump instants, as
    rows padded with the horizon: the instants, the jump sizes summed onto
    their instants (a jump at a grid instant, and jumps at one instant,
    share it), a jump flag per instant, and the length of each row.
    ``jumps`` are (times, rows, x, y) as ``_pair_chunk_jumps`` gives them."""
    grid = _uniform_grid(cfg)
    times, rows, jump_sizes_x, jump_sizes_y = jumps
    at = np.searchsorted(grid, times)  # grid instants before each jump
    off = grid[at] != times  # the jump adds an instant ...
    new = off.copy()  # ... and is the first jump there
    new[1:] &= (times[1:] != times[:-1]) | (rows[1:] != rows[:-1])
    added = np.bincount(rows[new], minlength=n_rows)
    col = at + np.cumsum(new) - new - (np.cumsum(added) - added)[rows] - (off & ~new)
    lengths = len(grid) + added
    merged = np.full((n_rows, int(lengths.max())), cfg.horizon)
    on_grid = np.arange(merged.shape[1]) < lengths[:, None]
    on_grid[rows[new], col[new]] = False
    merged[on_grid] = np.tile(grid, n_rows)
    merged[rows[new], col[new]] = times[new]
    jump_x, jump_y = np.zeros(merged.shape), np.zeros(merged.shape)
    np.add.at(jump_x, (rows, col), jump_sizes_x)
    np.add.at(jump_y, (rows, col), jump_sizes_y)
    flags = np.zeros(merged.shape, dtype=bool)
    flags[rows, col] = True
    return merged, jump_x, jump_y, flags, lengths


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """Running sums of ``a`` along its last axis, from 0 (one more entry).
    The sum is sequential per row, so a chunk row is bit for bit the sum of
    its path alone."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(a, axis=-1, out=out[..., 1:])
    return out


def _path_rows(cfg: PathConfig, jumps, n_rows: int, drift, sigma=None, rngs=()):
    """Paths of the pair on their jump-adapted grids as padded rows, and the
    length of each row.

    With one generator per row in ``rngs``, each row then draws the normals
    of its Brownian increments, sized by its own grid, and the increments
    come from the exact bivariate normal with covariance ``sigma * dt``;
    without, the paths have no Brownian part and are exact.  Drift is
    applied in closed form.
    """
    times, jump_x, jump_y, flags, lengths = _jump_adapted_grid(cfg, jumps, n_rows)
    bx, by = drift
    xi_left, eta_left = bx * times, by * times
    if rngs:
        l11, l21, l22 = _chol2x2(sigma)
        chol_t = np.array([[l11, 0.0], [l21, l22]]).T
        inc_x, inc_y = np.zeros(times.shape), np.zeros(times.shape)
        for r, rng in enumerate(rngs):
            inc = rng.standard_normal((lengths[r] - 1, 2)) @ chol_t
            inc_x[r, :len(inc)], inc_y[r, :len(inc)] = inc.T
        root_dt = np.sqrt(np.diff(times, axis=1))
        xi_left = xi_left + _prefix_sums(inc_x[:, :-1] * root_dt)
        eta_left = eta_left + _prefix_sums(inc_y[:, :-1] * root_dt)
    xi_left = xi_left + _prefix_sums(jump_x[:, :-1])
    eta_left = eta_left + _prefix_sums(jump_y[:, :-1])
    return Path(
        times, xi_left + jump_x, eta_left + jump_y, xi_left, eta_left, flags,
        (bx, by), exact=not rngs,
    ), lengths


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


def _pair_chunk(t: LevyTriplet2D, cfg: PathConfig, jump_table, draws):
    """Rows of ``simulate_pair`` from each row's (generator, arrivals,
    sizes), the last two from ``_pair_jumps``; ``jump_table`` is the
    driver's ``_density_jump_table``."""
    if jump_table is None:
        drift = _uncompensated_drift(t)
    else:
        drift = (t.gamma_tilde[0] - jump_table.comp[0], t.gamma_tilde[1] - jump_table.comp[1])
    jumps = _pair_chunk_jumps(t, [d[1:] for d in draws])
    return _path_rows(cfg, jumps, len(draws), drift, t.sigma, [d[0] for d in draws])


def _simulate_pair_with_rng(
    t: LevyTriplet2D,
    cfg: PathConfig,
    rng: np.random.Generator,
    jump_table: _DensityJumpTable | None,
) -> Path:
    """``simulate_pair`` from a given generator: a chunk of one row."""
    draw = (rng, *_pair_jumps(t, jump_table, rng, cfg.horizon))
    p, lengths = _pair_chunk(t, cfg, jump_table, [draw])
    return p.row(0, lengths[0])


def compute_Z(p: Path) -> np.ndarray:
    """Discounted integral along the path (along the last axis, so each row
    of a chunk on its own): between grid points the closed form on exact
    event-driven paths and left-point sums otherwise, plus the exact jump
    contributions with the left-limit integrand."""
    with np.errstate(over="ignore", invalid="ignore"):
        if p.exact:
            cont = _segment_z_increment(p.xi[..., :-1], np.diff(p.times), *p.drift)
        else:
            cont = np.exp(-p.xi[..., :-1]) * (p.eta_left[..., 1:] - p.eta[..., :-1])
        jump = np.exp(-p.xi_left[..., 1:]) * (p.eta[..., 1:] - p.eta_left[..., 1:])
    return _prefix_sums(cont + jump)


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


def _inf_past_overflow(Z):
    """Z with +inf for its non-finite values, which for a running sum are
    those from the first overflow on: no level is ruined there."""
    return np.where(np.isfinite(Z), Z, np.inf)


class _Chunk:
    """The first-passage reducer of the per-path engines, on a chunk of
    paths (one row per path).  A chunk's ``crossing_key`` has one column per
    monitored state in time order, padded with +inf, and a row is ruined at
    level z at its first column whose key is below -z; ``crossings`` gives
    the time, the path value and the kind of those crossings."""

    @cached_property
    def finite(self) -> np.ndarray:
        """Rows whose final Z and xi are finite.  Overflow carries through
        the running sums, so these rows are finite throughout."""
        return np.isfinite(self.z_T) & np.isfinite(self.xi_T)

    def first_crossings(self, levels: np.ndarray, want_times: bool):
        """Each row's first crossing of each level it crosses, as arrays
        (level index, row, time, value at the crossing, continuous
        crossing), and the number of levels each row crosses.  ``levels``
        ascend.  A level is first crossed at a record (a new minimum) of the
        key, so one pass over the rows that cross any level answers all of
        them."""
        key = self.crossing_key()
        passed = np.searchsorted(levels, -key.min(axis=1))
        rows = np.flatnonzero(passed)
        if not len(rows):
            none = np.empty(0)
            return rows, rows, none, none, none.astype(bool), passed
        low = np.minimum.accumulate(key[rows], axis=1)
        before = np.concatenate((np.full((len(rows), 1), np.inf), low[:, :-1]), axis=1)
        i, c = np.nonzero(low < before)  # the records
        crossed = np.searchsorted(levels, -low[i, c])  # levels crossed by each record
        first = np.zeros(len(i), dtype=crossed.dtype)
        first[1:] = np.where(i[1:] == i[:-1], crossed[:-1], 0)
        count = crossed - first  # levels first crossed at each record
        level = np.arange(count.sum()) - np.repeat(np.cumsum(count) - crossed, count)
        r, c = np.repeat(rows[i], count), np.repeat(c, count)
        return (level, r, *self.crossings(levels[level], r, c, want_times), passed)


class _EulerChunk(_Chunk):
    """A chunk of ``mixed_grid`` paths on their jump-adapted grids, with Z,
    from each row's (generator, arrivals, sizes)."""

    def __init__(self, t, cfg, jump_table, draws):
        self.p, lengths = _pair_chunk(t, cfg, jump_table, draws)
        self.Z = compute_Z(self.p)
        rows, last = np.arange(len(draws)), lengths - 1
        self.z_T, self.xi_T = self.Z[rows, last], self.p.xi[rows, last]
        self.valid = np.arange(self.Z.shape[1]) < lengths[:, None]

    def z_at(self, time):
        """Z at the first grid or jump instant at or after ``time`` (before
        the horizon)."""
        k = np.count_nonzero(self.p.times < time, axis=1)
        return self.Z[np.arange(len(k)), k]

    @cached_property
    def growth(self) -> np.ndarray:
        """e^xi, the factor of V = e^xi (z + Z)."""
        with np.errstate(over="ignore"):
            return np.exp(self.p.xi)

    def crossing_key(self):
        """Z at every grid and jump instant of its finite prefix where V has
        the sign of z + Z."""
        keep = self.valid & (self.growth > 0.0) & np.isfinite(self.Z)
        return np.where(keep, self.Z, np.inf)

    def crossings(self, z, r, c, want_times):
        value = self.growth[r, c] * (z + self.Z[r, c])
        return self.p.times[r, c], value, ~self.p.jump_flags[r, c]

    def lowest(self, z):
        """Each row's smallest V over its instants, from its finite prefix."""
        with np.errstate(invalid="ignore"):
            v = self.growth * (z + _inf_past_overflow(self.Z))
        return np.where(self.valid, v, np.inf).min(axis=1)


# ---------------------------------------------------------------------------
# Exact event-driven engine for drivers with no Gaussian part
# ---------------------------------------------------------------------------


def _segment_z_increment(xi0: np.ndarray, dt: np.ndarray, bx: float, by: float):
    """Closed-form discounted increment over a jump-free segment,
    (by / bx) e^-xi0 (1 - e^(-bx dt)), evaluated in place."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        disc = np.negative(xi0)
        np.exp(disc, out=disc)
        if abs(bx) < 1e-300:
            return by * disc * dt
        growth = np.multiply(-bx, dt)
        np.expm1(growth, out=growth)
        # the sign moves onto the scalar: negation is exact and rounding
        # is symmetric, so this is (by / bx) disc (-growth) bit for bit
        np.multiply(-(by / bx), disc, out=disc)
        return np.multiply(disc, growth, out=disc)


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


def is_exact_fv(t: LevyTriplet2D) -> bool:
    """Whether the exact event-driven engine applies: finitely many jump
    types and a zero Gaussian part."""
    return t.jumps.atoms_or_none() is not None and zero_gaussian(t)


def _require_fv(t: LevyTriplet2D):
    if not is_exact_fv(t):
        raise NotSupportedError(
            "event-driven engine requires the atom tier and a zero Gaussian part"
        )


def _scaled(xi: float, v: float) -> float:
    """e^xi v, with the sign of v past the float range of e^xi."""
    try:
        return math.exp(xi) * v
    except OverflowError:
        return math.copysign(math.inf, v)


@dataclass
class _ExactChunk(_Chunk):
    """A chunk of ``exact_fv`` paths, one row per path with ``n[r]``
    arrivals, padded past them.  Segment k <= n[r] of row r runs with the
    drift (bx, by) from ``start[r, k]``, with xi and Z at ``xi_start`` and
    ``z_start``, to ``tau[r, k]``: arrival k, with the states just before
    and after it in ``xi_pre``/``z_pre`` and ``xi_post``/``z_post``, or for
    k = n[r] the horizon, with ``z_T``/``xi_T``."""

    n: np.ndarray
    tau: np.ndarray
    start: np.ndarray
    bx: float
    by: float
    xi_start: np.ndarray
    z_start: np.ndarray
    xi_pre: np.ndarray
    xi_post: np.ndarray
    z_pre: np.ndarray
    z_post: np.ndarray
    z_T: np.ndarray
    xi_T: np.ndarray

    def z_at(self, time):
        """Z at ``time`` (before the horizon)."""
        k = np.count_nonzero(self.tau < time, axis=1)  # the segment of time
        r = np.arange(len(k))
        inc = _segment_z_increment(self.xi_start[r, k], time - self.start[r, k], self.bx, self.by)
        return self.z_start[r, k] + inc

    def _finite_prefix(self):
        """(z_pre, z_post, z_T) with +inf past an overflow; only a chunk
        with a non-finite row pays for the masking."""
        z = (self.z_pre, self.z_post, self.z_T)
        if self.finite.all():
            return z
        return tuple(_inf_past_overflow(a) for a in z)

    def crossing_key(self):
        """Z at the pre-jump and post-jump states of each arrival and at the
        horizon, one column per segment end.  Between arrivals the path
        solves a scalar linear ODE and is monotone, so these states detect
        every crossing."""
        z_pre, z_post, z_T = self._finite_prefix()
        rows, width = z_pre.shape
        key = np.full((rows, width), np.inf)
        np.minimum(z_pre, z_post, out=key, where=np.arange(width) < self.n[:, None])
        key[np.arange(rows), self.n] = z_T
        return key

    def crossings(self, z, r, c, want_times):
        """A crossing at a pre-jump or horizon state is continuous, inside
        the segment that ends there, with value 0 and its time solved in
        closed form (only when ``want_times`` is set, NaN otherwise); one at
        a post-jump state is at its arrival, with the exact overshoot."""
        z_pre = self._finite_prefix()[0]
        cont = (c == self.n[r]) | (z_pre[r, c] < -z)
        jump = ~cont
        time = np.full(len(r), math.nan)
        value = np.zeros(len(r))
        rj, cj = r[jump], c[jump]
        time[jump] = self.tau[rj, cj]
        value[jump] = [
            math.exp(x) * (lv + zp)
            for x, lv, zp in zip(self.xi_post[rj, cj].tolist(), z[jump].tolist(),
                                 self.z_post[rj, cj].tolist())
        ]
        if want_times:
            rc, cc = r[cont], c[cont]
            time[cont] = [
                t0 + _segment_crossing_time(math.exp(x0) * (lv + z0), self.bx, self.by)
                for t0, x0, lv, z0 in zip(self.start[rc, cc].tolist(),
                                          self.xi_start[rc, cc].tolist(), z[cont].tolist(),
                                          self.z_start[rc, cc].tolist())
            ]
        return time, value, cont

    def lowest(self, z):
        """Each row's smallest V = e^xi (z + Z) over its event and horizon
        states, from its finite prefix."""
        z_pre, z_post, z_T = self._finite_prefix()
        z_T = np.where(self.finite, z_T, np.inf).tolist()
        low = np.array([_scaled(x, z + v) for x, v in zip(self.xi_T.tolist(), z_T)])
        events = np.arange(z_pre.shape[1]) < self.n[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            for xi, zz in ((self.xi_pre, z_pre), (self.xi_post, z_post)):
                v = np.where(events, np.exp(xi) * (z + zz), np.inf).min(axis=1)
                low = np.where(v < low, v, low)
        return low


def _padded(rows, width: int, fill: float, lead=None) -> np.ndarray:
    """The 1-d arrays ``rows`` as the rows of one array, each padded with
    ``fill`` to ``width``, after a first column of ``lead`` if given."""
    pad = np.full(width, fill)
    first = () if lead is None else (np.full(1, lead),)
    parts = [a for row in rows for a in (*first, row, pad[len(row):])]
    return np.concatenate(parts).reshape(len(rows), -1)


def _fv_state_arrays(t: LevyTriplet2D, events, horizon: float) -> _ExactChunk:
    """The exact paths of a chunk, one row per ``_fv_events`` draw (arrival
    times, jumps).  Segment starts are views one column behind the ends."""
    bx, by = _uncompensated_drift(t)
    n = np.array([len(tau) for tau, _, _ in events])
    width = int(n.max()) + 1  # the arrivals and the horizon
    ends = _padded([e[0] for e in events], width, horizon, lead=0.0)
    jx = _padded([e[1] for e in events], width, 0.0)
    jy = _padded([e[2] for e in events], width, 0.0)
    tau = ends[:, 1:]
    xi_pre = bx * tau + _prefix_sums(jx[:, :-1])
    xi = np.empty(ends.shape)  # 0, then xi after each arrival
    xi[:, 0] = 0.0
    np.add(xi_pre, jx, out=xi[:, 1:])
    dt = tau - ends[:, :-1]
    seg_inc = _segment_z_increment(xi[:, :-1], dt, bx, by)
    z = np.empty(ends.shape)  # 0, then Z after each arrival
    z[:, 0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        jump_inc = np.negative(xi_pre)
        np.exp(jump_inc, out=jump_inc)
        np.multiply(jump_inc, jy, out=jump_inc)
        z_pre = np.cumsum(seg_inc, axis=1)
        z_pre += _prefix_sums(jump_inc[:, :-1])
        np.add(z_pre, jump_inc, out=z[:, 1:])
    r = np.arange(len(events))
    return _ExactChunk(
        n, tau, ends[:, :-1], bx, by, xi[:, :-1], z[:, :-1], xi_pre, xi[:, 1:], z_pre, z[:, 1:],
        z[r, n] + seg_inc[r, n], xi[r, n] + bx * dt[r, n],
    )


def _segment_crossing_time(v0: float, bx: float, by: float) -> float:
    """Exact time at which the jump-free flow from v0 >= 0 reaches zero."""
    if abs(bx) < 1e-300:
        return v0 / -by
    v_star = -by / bx
    return math.log(v_star / (v_star - v0)) / bx


def fv_first_passage(
    t: LevyTriplet2D, z: float, horizon: float, rng: np.random.Generator
) -> FirstPassage:
    """Exact first passage below zero for a zero-Gaussian atom driver, from
    the finite prefix of the path."""
    _require_fv(t)
    chunk = _fv_state_arrays(t, [_fv_events(t, horizon, rng)], horizon)
    _, r, time, value, cont, _ = chunk.first_crossings(np.array([float(z)]), True)
    if not len(r):
        return FirstPassage(False)
    return FirstPassage(True, float(time[0]), float(value[0]), bool(cont[0]))


def exact_fv_path(t: LevyTriplet2D, cfg: PathConfig, path_index: int = 0) -> Path:
    """Full exact path of a zero-Gaussian atom driver on grid + jump times."""
    _require_fv(t)
    tau, jx, jy = _fv_events(t, cfg.horizon, path_rng(cfg.seed, path_index))
    jumps = (tau, np.zeros(len(tau), dtype=np.intp), jx, jy)
    p, lengths = _path_rows(cfg, jumps, 1, _uncompensated_drift(t))
    return p.row(0, lengths[0])


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


def write_path_csv(p: Path, z: float, fh) -> None:
    """One row per grid/jump point: time,xi,eta,Z,V,jump."""
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
