"""Jump-adapted Monte Carlo simulation of the driving pair and the risk path.

Each path input has one owner.  ``time_grid`` is the grid of every grid
engine: n = max(1, round(T / step)) equal steps, ending exactly at T.
``_fv_events`` is the one atom-jump sampler of both event engines: one
Poisson clock at the total rate, then the atom of each arrival drawn with
its probability (superposed Poisson clocks are exact), so on a driver with
no Gaussian part ``mixed_grid`` draws the jumps of ``exact_fv`` path for
path.  ``path_step`` states the rules of the horizon, the step and the
density cutoff for every engine, and the default step.

The driving pair is simulated on the union of the grid and the exact jump
times, so jump contributions carry no discretization error; only the
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

Randomness is keyed.  The event engines (``exact_fv``, ``mixed_grid``) and
the bridge engines (``bridge``) draw every value as a splitmix64 hash
uniform (``_hash_uniforms``) at a counter of the sequence keyed by (seed,
stream); an event-engine counter packs path << 32 | index << 3 | draw
kind, so arrival k's gap and atom, and interval j's normal pair, never
depend on the horizon, the round that draws them or the worker.  The event
engines march the live paths of a range forward together in rounds (in
``events``, compiled only once an event engine runs), and a path leaves
once it reaches the horizon or its question is answered.  ``simulate_pair``
and ``fv_first_passage`` are the one-path views of those rounds.  No engine
opens a generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidModelError, NotSupportedError
from .model import UNIT, X_COORD, Y_COORD, LevyTriplet2D, _uncompensated_drift, zero_gaussian
from .quadrature import Strip, strips_in_annulus, strips_outside_ball


#: The most steps round(horizon / step) a path request may ask for: a grid
#: engine holds per-step arrays of that many floats.  The requests in use
#: ask for at most 20,000.
MAX_GRID_STEPS = 2**22

#: The most paths a request may ask for: a keyed counter holds the path
#: index in its top 32 bits.
MAX_PATHS = 2**32 - 1

#: The most arrivals a path may expect (rate x horizon), with its grid
#: steps on ``mixed_grid``: half the 29-bit index field of a keyed counter,
#: so a Poisson count past the field is beyond any realistic chance.
MAX_EVENTS = 2**28

# Draw kinds of an event-engine counter, path << 32 | index << 3 | kind: an
# arrival's gap and its atom (or density cell), the cell's two in-cell
# positions, and the Box-Muller pair of a mixed_grid interval.
_GAP, _ATOM, _CELL_X, _CELL_Y, _RADIUS, _ANGLE = range(6)

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15  # splitmix64's counter increment


def _mix64(x: int) -> int:
    """The splitmix64 finalizer of a 64-bit int."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _hash_uniforms(seed: int, stream: int, idx0: int, flat_cells: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) with 53 bits, one per counter ``idx0 +
    flat_cells`` (an array of any shape): splitmix64 outputs at those
    counters of the sequence keyed by (seed, stream), so each depends only
    on its counter, never on the order or grouping of the draws."""
    key = _mix64(_mix64(seed & _MASK64) ^ (stream + 1) * _GAMMA64 & _MASK64)
    # (counter + idx0) gamma + key, with the constant part folded (mod 2^64)
    v = np.multiply(np.asarray(flat_cells, dtype=np.uint64), np.uint64(_GAMMA64))
    v += np.uint64((idx0 * _GAMMA64 + key) & _MASK64)
    shifted = np.empty_like(v)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        v ^= np.right_shift(v, np.uint64(shift), out=shifted)
        v *= np.uint64(mult)
    v ^= np.right_shift(v, np.uint64(31), out=shifted)
    return np.multiply(np.right_shift(v, np.uint64(11), out=v), 2.0 ** -53)


def _counters(ids, index) -> np.ndarray:
    """The event counters path << 32 | index << 3 of paths ``ids`` at
    indices ``index`` (broadcast); a draw adds its kind (``_hash_uniforms``'s
    ``idx0``)."""
    return ((np.asarray(ids, dtype=np.uint64) << np.uint64(32))
            | (np.asarray(index, dtype=np.uint64) << np.uint64(3)))


def _run_counters(ids, first, width: int) -> np.ndarray:
    """The counters of indices ``first`` to ``first + width - 1`` of each
    path of ``ids``, one row per path."""
    return _counters(ids, first)[:, None] + np.uint64(8) * np.arange(width, dtype=np.uint64)


def check_event_count(rate: float, horizon: float, steps: int = 0) -> None:
    """Refuse a request whose paths expect more than ``MAX_EVENTS``
    arrivals and grid steps, before anything is drawn."""
    expected = rate * horizon + steps
    if not expected <= MAX_EVENTS:
        raise InvalidModelError(
            f"a path expects {expected:.4g} arrivals and grid steps (rate {rate} over "
            f"horizon {horizon}); the cap is {MAX_EVENTS}"
        )


def check_path_count(n: int) -> None:
    """Refuse a request for ``MAX_PATHS`` paths or more."""
    if n > MAX_PATHS:
        raise InvalidModelError(f"{n} paths asked for; the cap is {MAX_PATHS}")


def path_step(horizon: float, step: float | None = None,
              truncation_eps: float | None = None) -> float:
    """The step of a path request, once its horizon, step and cutoff pass
    the rules of every engine: the horizon is positive and finite, a given
    step lies in (0, horizon] and asks for at most ``MAX_GRID_STEPS``
    steps, and a given ``truncation_eps`` is positive.  Without a step it is
    min(0.01, horizon / 100)."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise InvalidModelError(f"horizon must be positive and finite, got {horizon}")
    if step is not None and not (0.0 < step <= horizon):
        raise InvalidModelError(f"step must satisfy 0 < step <= horizon, got {step}")
    if truncation_eps is not None and not (truncation_eps > 0.0):
        raise InvalidModelError(f"truncation_eps must be positive, got {truncation_eps}")
    if step is None:
        return min(0.01, horizon / 100.0)
    steps = horizon / step
    if math.isinf(steps) or round(steps) > MAX_GRID_STEPS:
        raise InvalidModelError(
            f"step {step} over horizon {horizon} asks for {steps:.0f} grid steps; "
            f"the cap is {MAX_GRID_STEPS}"
        )
    return step


def time_grid(horizon: float, step: float) -> np.ndarray:
    """The grid of every grid engine: n = max(1, round(horizon / step))
    equal steps, ending exactly at the horizon."""
    return np.linspace(0.0, horizon, max(1, int(round(horizon / step))) + 1)


@dataclass(frozen=True)
class PathConfig:
    """Time horizon, grid step, seed, and the density-tier jump cutoff of
    ``simulate_pair``."""

    horizon: float
    step: float
    seed: int
    truncation_eps: float | None = None

    def __post_init__(self):
        path_step(self.horizon, self.step, self.truncation_eps)


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

    def row(self, r: int, length: int) -> Path:
        """Path of row ``r`` of a chunk, cut to its ``length`` instants."""
        cut = (r, slice(0, length))
        return Path(
            self.times[cut], self.xi[cut], self.eta[cut], self.xi_left[cut],
            self.eta_left[cut], self.jump_flags[cut], self.drift,
        )


@dataclass(frozen=True)
class FirstPassage:
    hit: bool
    time: float = math.nan
    v_at_hit: float = math.nan
    continuous_crossing: bool = False


def path_rng(seed: int, path_index: int = 0, stream: int = 0) -> np.random.Generator:
    """Counter-based per-path generator keyed by (seed, stream, path_index):
    ``Generator(Philox(SeedSequence(seed, spawn_key=(stream,
    path_index))))``.  No engine opens it; it stays callable for outside
    callers, and ``numpy.random`` loads only on a call."""
    seed, stream, path_index = int(seed), int(stream), int(path_index)
    for name, v in (("seed", seed), ("stream", stream), ("path index", path_index)):
        if v < 0:
            raise InvalidModelError(f"{name} must be a non-negative integer, got {v}")
    from numpy.random import Generator, Philox, SeedSequence

    return Generator(Philox(SeedSequence(seed, spawn_key=(stream, path_index))))


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


def _running(carry, values=None, width: int | None = None) -> np.ndarray:
    """A buffer of running sums from ``carry`` along the last axis: the
    carry, then ``width`` entries of ``values`` (broadcast; when None, to
    be filled in)."""
    out = np.empty(np.shape(carry) + ((np.shape(values)[-1] if width is None else width) + 1,))
    out[..., 0] = carry
    if values is not None:
        out[..., 1:] = values
    return out


def _prefix_sums(a: np.ndarray, carry=0.0) -> np.ndarray:
    """Running sums of ``a`` along its last axis, from ``carry`` (one more
    entry).  The sum is sequential per row, so a chunk row is bit for bit
    the sum of its path alone, whatever rounds it is cut into."""
    out = _running(np.broadcast_to(carry, a.shape[:-1]), a)
    return np.cumsum(out, axis=-1, out=out)


def _arrival_times(seed: int, stream: int, counters: np.ndarray, clock, rate: float) -> np.ndarray:
    """Clocks of the arrivals at ``counters`` (``_run_counters``: arrivals
    k0 to k0 + width - 1 of a path per row), continued from each row's
    ``clock``, the time of its arrival k0 - 1 (0 before the first).

    Arrival k's gap is -log1p(-u) / rate, u the hash uniform at counter
    (path, k, gap), and its clock the running sum of the gaps in index
    order, one sequential sum per row carried from round to round, so a
    clock never depends on the round that draws it.  A zero rate never
    arrives."""
    if rate <= 0.0:
        return np.full(counters.shape, np.inf)
    u = _hash_uniforms(seed, stream, _GAP, counters)
    np.log1p(np.negative(u, out=u), out=u)
    clocks = _running(clock, None, u.shape[1])
    np.divide(u, -rate, out=clocks[:, 1:])
    return np.cumsum(clocks, axis=1, out=clocks)[:, 1:]


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The cdf that ``Generator.choice`` builds from the probabilities
    ``weights / weights.sum()``: ``cdf.searchsorted(u, side="right")``
    draws an index with its probability from a uniform u."""
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


class _DensityJumpTable(NamedTuple):
    """Path-independent part of density-tier jump sampling."""

    comp: tuple[float, float]  # compensator over eps <= |(x, y)| < 1
    rate: float  # jump rate outside the cutoff ball
    xs: np.ndarray  # cell edges
    ys: np.ndarray
    cdf: np.ndarray | None  # over the cells (``_choice_cdf``); None without mass


def _density_jump_table(t: LevyTriplet2D, eps: float | None) -> _DensityJumpTable | None:
    """Jump table of a density measure truncated below ``eps``, the
    ``truncation_eps`` of a request (None on the atom tier).

    Jump sizes are drawn from a 128x128 cell discretization of the density
    outside the cutoff ball; the cell approximation is the documented cost
    of simulating an infinite-activity measure.  The table depends on the
    driver and the cutoff only, so a batch of paths builds it once.
    """
    dens = t.jumps
    if dens.atoms_or_none() is not None:
        return None
    if eps is None:
        raise NotSupportedError(
            "density-tier simulation requires an explicit truncation_eps"
        )
    full = [Strip()]
    outside = strips_outside_ball(full, eps)
    lam = dens.integrate(UNIT, outside)
    comp_region = strips_in_annulus(full, eps, 1.0)
    comp_x = dens.integrate(X_COORD, comp_region)
    comp_y = dens.integrate(Y_COORD, comp_region)

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
    cdf = _choice_cdf(weights) if weights.sum() > 0.0 else None
    return _DensityJumpTable((comp_x, comp_y), lam, xs, ys, cdf)


def _truncated_density_jumps(table: _DensityJumpTable, seed: int, stream: int, counters):
    """The jump sizes (x, y) of the arrivals at ``counters`` from a jump
    table: arrival k lands in a cell drawn with its probability from the
    uniform at (path, k, atom), at the position in it of the uniforms at
    (path, k, cell x) and (path, k, cell y)."""
    xs, ys = table.xs, table.ys
    cells = table.cdf.searchsorted(_hash_uniforms(seed, stream, _ATOM, counters), side="right")
    ix, iy = np.unravel_index(cells, (len(xs) - 1, len(ys) - 1))
    ux = _hash_uniforms(seed, stream, _CELL_X, counters)
    uy = _hash_uniforms(seed, stream, _CELL_Y, counters)
    return xs[ix] + ux * (xs[1] - xs[0]), ys[iy] + uy * (ys[1] - ys[0])


def _pair_jumps(t: LevyTriplet2D, jump_table, seed: int, stream: int, counters):
    """Jump sizes (x, y) of the arrivals at ``counters`` on ``mixed_grid``:
    those of the density jump table, or the atoms' from ``_fv_events``, as
    on ``exact_fv``."""
    if jump_table is not None:
        return _truncated_density_jumps(jump_table, seed, stream, counters)
    return _fv_events(t, seed, stream, counters)


def _pair_rates(t: LevyTriplet2D, jump_table) -> tuple[float, float, float]:
    """The drift (bx, by) of ``mixed_grid`` between jumps, and its arrival
    rate: the atoms' total, or the jump table's (0 without mass)."""
    if jump_table is None:
        return (*_uncompensated_drift(t), _event_types(t.jumps.atoms_or_none())[0])
    rate = jump_table.rate if jump_table.cdf is not None else 0.0
    return (t.gamma_tilde[0] - jump_table.comp[0], t.gamma_tilde[1] - jump_table.comp[1], rate)


#: Values per array of a one-path view (``simulate_pair``,
#: ``fv_first_passage``): most paths take one round.
_ONE_PATH_ELEMS = 1 << 16


def simulate_pair(
    t: LevyTriplet2D, cfg: PathConfig, path_index: int = 0, stream: int = 0
) -> Path:
    """The driving pair of ``mixed_grid`` path ``path_index`` on its
    jump-adapted grid of ``time_grid`` (``events._mixed_rounds``, one path).

    Brownian increments come from the exact bivariate normal with covariance
    ``Sigma * dt``, jump arrivals are exact exponential clocks merged into
    the grid, and drift is applied in closed form.
    """
    check_path_count(path_index + 1)
    table = _density_jump_table(t, cfg.truncation_eps)
    grid = time_grid(cfg.horizon, cfg.step)
    check_event_count(_pair_rates(t, table)[2], cfg.horizon, len(grid) - 1)
    from .events import _mixed_rounds  # compiled only once an event engine runs

    rounds = _mixed_rounds(t, grid, table, cfg.seed, stream, np.array([path_index]),
                           _ONE_PATH_ELEMS)
    cuts = [(chunk.p, slice(chunk.start, chunk.lengths[0])) for _, chunk in rounds]
    return Path(*(np.concatenate([getattr(p, f)[0, s] for p, s in cuts])
                  for f in ("times", "xi", "eta", "xi_left", "eta_left", "jump_flags")),
                cuts[0][0].drift)


def _z_increments(p: Path) -> np.ndarray:
    """Increments of the discounted integral between the instants of ``p``
    (along the last axis): left-point sums between grid points, plus at a
    jump the exact jump contribution with the left-limit integrand."""
    with np.errstate(over="ignore", invalid="ignore"):
        inc = np.negative(p.xi[..., :-1])
        np.exp(inc, out=inc)
        inc *= p.eta_left[..., 1:] - p.eta[..., :-1]
        at = np.nonzero(p.jump_flags[..., 1:])
        ends = at[:-1] + (at[-1] + 1,)
        inc[at] += np.exp(-p.xi_left[ends]) * (p.eta[ends] - p.eta_left[ends])
        return inc


def compute_Z(p: Path) -> np.ndarray:
    """Discounted integral along the path (along the last axis, so each row
    of a chunk on its own): left-point sums between grid points, plus the
    exact jump contributions with the left-limit integrand."""
    return _prefix_sums(_z_increments(p))


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


class States(NamedTuple):
    """The monitored instants of a chunk's paths, one row per path in time
    order, padded past each row's ``length``: the time, xi, Z, V = e^xi (z +
    Z) and whether a jump happened there.  V is taken from the row's finite
    prefix (+inf past an overflow of Z on the event engines)."""

    time: np.ndarray
    xi: np.ndarray
    Z: np.ndarray
    V: np.ndarray
    jump: np.ndarray
    length: np.ndarray

    def lowest(self) -> np.ndarray:
        """Each row's smallest V."""
        held = np.arange(self.V.shape[1]) < self.length[:, None]
        return np.where(held, self.V, np.inf).min(axis=1)


class _Chunk:
    """The first-passage reducer of every engine, on a chunk of paths (one
    row per path).  A chunk's ``crossing_key`` has one column per monitored
    state in time order, padded with +inf; ``ruin`` maps keys to -Z, falling
    as they rise, and a row is ruined at level z at its first column whose
    key maps above z.  ``crossings`` gives the time, the path value and the
    kind of those crossings.  The batch loop (``estimate._batch_from_chunks``)
    also reads ``z_T``, ``finite`` and ``z_at``, and a sink of the loop reads
    ``states``.  A round of an event engine continues its rows from the
    round before: it holds the instants after those, and ``z_T`` and
    ``z_at`` are NaN on the rows that end or hold the instant later."""

    ruin = np.negative  # keys are Z unless a chunk says otherwise
    values_by_column = True  # else crossing columns are needed only for times

    @cached_property
    def finite(self) -> np.ndarray:
        """Rows whose Z and xi at their last instant in the chunk are
        finite.  Overflow carries through the running sums, so these rows
        are finite throughout."""
        return np.isfinite(self.z_end) & np.isfinite(self.xi_end)

    def first_crossings(self, levels: np.ndarray, want_times: bool, before=0):
        """Each row's first crossing of each level it crosses after the
        ``before`` levels it crossed earlier, as arrays (level index, row,
        time, value at the crossing, continuous crossing), and the levels
        each row has crossed.  ``levels`` ascend.  A level is first crossed
        at a record (a new minimum) of the key, so one pass over the rows
        that cross a new level answers all of them."""
        key = self.crossing_key()
        passed = np.maximum(before, np.searchsorted(levels, self.ruin(key.min(axis=1))))
        count = passed - before  # levels each row crosses first here
        rows = np.flatnonzero(count)
        if not len(rows):
            return rows, rows, rows, rows, rows, passed  # no new crossing
        c = None
        if want_times or self.values_by_column:
            low = key[rows]
            np.minimum.accumulate(low, axis=1, out=low)
            record = low < np.inf  # in the first column, where finite
            record[:, 1:] = low[:, 1:] < low[:, :-1]
            i, c = np.divmod(np.flatnonzero(record), record.shape[1])  # np.nonzero, faster
            # levels crossed by each record, and by the one before it in its row
            prior = (passed - count)[rows[i]]
            crossed = np.maximum(prior, np.searchsorted(levels, self.ruin(low[i, c])))
            prior[1:] = np.where(i[1:] == i[:-1], crossed[:-1], prior[1:])
            c = c.repeat(crossed - prior)  # the column of each first crossing
        n_new = count[rows]
        r = rows.repeat(n_new)  # each row once per level it crosses first, ascending
        level = np.arange(len(r)) - (np.cumsum(n_new) - passed[rows]).repeat(n_new)
        return (level, r, *self.crossings(levels[level], r, c, want_times), passed)


# ---------------------------------------------------------------------------
# Exact event-driven engine for drivers with no Gaussian part
# ---------------------------------------------------------------------------


def _segment_z_increment(xi0: np.ndarray, dt: np.ndarray, bx: float, by: float, out=None):
    """Closed-form discounted increment over a jump-free segment,
    (by / bx) e^-xi0 (1 - e^(-bx dt)), evaluated in place (into ``out``
    if given, which may be ``dt``)."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        disc = np.negative(xi0)
        np.exp(disc, out=disc)
        if abs(bx) < 1e-300:
            disc *= by
            return np.multiply(disc, dt, out=disc if out is None else out)
        growth = np.multiply(-bx, dt)
        np.expm1(growth, out=growth)
        # the sign moves onto the scalar: negation is exact and rounding
        # is symmetric, so this is (by / bx) disc (-growth) bit for bit
        np.multiply(-(by / bx), disc, out=disc)
        return np.multiply(disc, growth, out=disc if out is None else out)


@lru_cache(maxsize=16)
def _event_types(atoms) -> tuple:
    """Total rate, the atoms' ``_choice_cdf`` (None for fewer than two), and
    their x and y, of a tuple of atoms: the per-driver part of
    ``_fv_events``."""
    rates, xs, ys = (np.array([getattr(a, f) for a in atoms]) for f in ("rate", "x", "y"))
    for a in (xs, ys):
        a.setflags(write=False)  # shared by every caller
    return rates.sum(), _choice_cdf(rates) if len(atoms) > 1 else None, xs, ys


def _fv_events(t: LevyTriplet2D, seed: int, stream: int, counters):
    """The atom jump sizes (x, y) of the arrivals at ``counters``, scalars
    for one atom: one Poisson clock at the total rate (``_arrival_times``),
    then the atom of arrival k, drawn with its probability from the uniform
    at (path, k, atom).  The superposed clock is exact, and it is the one
    atom-jump sampler of ``exact_fv`` and ``mixed_grid``."""
    _, cdf, xs, ys = _event_types(t.jumps.atoms_or_none())
    if cdf is None:  # one atom
        return xs[0], ys[0]
    kinds = cdf.searchsorted(_hash_uniforms(seed, stream, _ATOM, counters), side="right")
    return xs[kinds], ys[kinds]


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
    """A round of ``exact_fv`` paths (``events._fv_rounds``), one row per path
    with ``n[r]`` arrivals in the round.  Segment k of row r runs with the
    drift (bx, by) from ``start[r, k]``, with xi and Z at ``xi_start`` and
    ``z_start``, to ``tau[r, k]``: for k < n[r] an arrival, with the states
    just before and after it in ``xi_pre``/``z_pre`` and
    ``xi_post``/``z_post``; for k = n[r], on a row that has ``ended`` in the
    round, the horizon, with xi and Z there in ``xi_pre`` and ``z_pre``.
    Later columns pad the row.  ``xi_end``/``z_end`` hold each row's last
    state in the round; the ``first`` round starts at t = 0."""

    n: np.ndarray
    ended: np.ndarray
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
    xi_end: np.ndarray
    z_end: np.ndarray
    first: bool

    @property
    def z_T(self) -> np.ndarray:
        """Z at the horizon on the rows that end in the round."""
        return np.where(self.ended, self.z_end, math.nan)

    def z_at(self, time):
        """Z at ``time`` (before the horizon), on the rows whose round holds
        it."""
        k = np.count_nonzero(self.tau < time, axis=1)  # the segment of time
        held = (self.start[:, 0] < time) & (k < self.tau.shape[1])
        r, k = np.arange(len(k)), np.minimum(k, self.tau.shape[1] - 1)
        inc = _segment_z_increment(self.xi_start[r, k], time - self.start[r, k], self.bx, self.by)
        return np.where(held, self.z_start[r, k] + inc, math.nan)

    def _finite_prefix(self):
        """(z_pre, z_post) with +inf past an overflow; only a chunk with a
        non-finite row pays for the masking."""
        z = (self.z_pre, self.z_post)
        if self.finite.all():
            return z
        return tuple(_inf_past_overflow(a) for a in z)

    def crossing_key(self):
        """Z at the pre-jump and post-jump states of each arrival and at the
        horizon, one column per segment end.  Between arrivals the path
        solves a scalar linear ODE and is monotone, so these states detect
        every crossing."""
        z_pre, z_post = self._finite_prefix()
        key = np.minimum(z_pre, z_post)
        end = np.flatnonzero(self.ended)
        if len(end):
            n = self.n[end]
            tail = key[end]
            tail[np.arange(tail.shape[1]) > n[:, None]] = np.inf
            tail[np.arange(len(end)), n] = z_pre[end, n]
            key[end] = tail
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

    def states(self, z):
        """t = 0 on the first round, then the pre-jump and the post-jump
        state of each arrival (one instant, the second flagged as the jump),
        then the horizon on a row that ends, where e^xi may pass the float
        range."""
        z_pre, z_post = self._finite_prefix()
        rows, width = self.tau.shape
        end = np.flatnonzero(self.ended)
        at_end = (end, 2 * self.n[end] + 1)

        def timeline(start, pre, post, last):
            out = np.empty((rows, 2 * width + 1), dtype=np.asarray(pre).dtype)
            out[:, 0], out[:, 1::2], out[:, 2::2] = start, pre, post
            out[at_end] = last
            return out if self.first else out[:, 1:]

        last = (end, self.n[end])
        z_T = np.where(self.finite[end], z_pre[last], np.inf).tolist()
        v_T = [_scaled(x, z + zz) for x, zz in zip(self.xi_pre[last].tolist(), z_T)]
        with np.errstate(over="ignore", invalid="ignore"):
            v = timeline(z, np.exp(self.xi_pre) * (z + z_pre),
                         np.exp(self.xi_post) * (z + z_post), v_T)
        length = np.where(self.ended, 2 * self.n + 2, 2 * width + 1) - (0 if self.first else 1)
        return States(
            timeline(0.0, self.tau, self.tau, self.tau[last]),
            timeline(0.0, self.xi_pre, self.xi_post, self.xi_pre[last]),
            timeline(0.0, self.z_pre, self.z_post, self.z_pre[last]),
            v, timeline(False, False, True, False), length,
        )


def _fv_state_arrays(t: LevyTriplet2D, carry, tau, jx, jy, horizon: float,
                     first: bool) -> _ExactChunk:
    """The exact round of the paths whose state before it is ``carry`` (an
    ``events._Carry``) and whose next arrivals come at ``tau`` with the
    jumps (jx, jy), one row per path; ``carry`` moves on to each row's last
    arrival in the round.  The first arrival past the horizon ends its row:
    the horizon ends its segment, and the later columns pad the row.  xi is
    bx t plus the jumps before, Z the running sum of the segment increments
    plus that of the jump increments, and segment starts are views one
    column behind the ends."""
    bx, by = _uncompensated_drift(t)
    rows, width = tau.shape
    n = np.full(rows, width)
    end = np.flatnonzero(tau[:, -1] > horizon)  # the rows that end in the round
    n[end] = np.count_nonzero(tau[end] <= horizon, axis=1)
    ends = _running(carry.clock, tau)  # the carry's clock, then the segment ends
    ends[end, 1:] = np.minimum(tau[end], horizon)
    # jumps past the horizon move only the padding after it
    jumps = _running(carry.jx, jx, width)
    np.cumsum(jumps, axis=1, out=jumps)
    xi = _running(carry.xi, None, width)  # the carry's xi, then xi after each arrival
    xi_pre = bx * ends[:, 1:] + jumps[:, :-1]
    np.add(xi_pre, jx, out=xi[:, 1:])
    seg = _running(carry.seg, None, width)
    np.subtract(ends[:, 1:], ends[:, :-1], out=seg[:, 1:])
    _segment_z_increment(xi[:, :-1], seg[:, 1:], bx, by, out=seg[:, 1:])
    np.cumsum(seg, axis=1, out=seg)
    z = _running(carry.z, None, width)  # the carry's Z, then Z after each arrival
    with np.errstate(over="ignore", invalid="ignore"):
        jump_inc = np.negative(xi_pre)
        np.exp(jump_inc, out=jump_inc)
        np.multiply(jump_inc, jy, out=jump_inc)
        jz = _running(carry.jz, jump_inc)
        np.cumsum(jz, axis=1, out=jz)
        z_pre = seg[:, 1:] + jz[:, :-1]
        np.add(z_pre, jump_inc, out=z[:, 1:])
    ended = n < width
    r, last = np.arange(rows), np.minimum(n, width - 1)
    chunk = _ExactChunk(
        n, ended, ends[:, 1:], ends[:, :-1], bx, by, xi[:, :-1], z[:, :-1], xi_pre, xi[:, 1:],
        z_pre, z[:, 1:], np.where(ended, xi_pre[r, last], xi[r, last + 1]),
        np.where(ended, z_pre[r, last], z[r, last + 1]), first,
    )
    carry.clock, carry.xi, carry.z = ends[:, -1], xi[:, -1], z[:, -1]
    carry.jx, carry.seg, carry.jz = jumps[:, -1], seg[:, -1], jz[:, -1]
    return chunk


def _segment_crossing_time(v0: float, bx: float, by: float) -> float:
    """Exact time at which the jump-free flow from v0 >= 0 reaches zero."""
    if abs(bx) < 1e-300:
        return v0 / -by
    v_star = -by / bx
    return math.log(v_star / (v_star - v0)) / bx


def fv_first_passage(
    t: LevyTriplet2D, z: float, horizon: float, seed: int, path_index: int = 0, stream: int = 0
) -> FirstPassage:
    """Exact first passage below zero of ``exact_fv`` path ``path_index``
    for a zero-Gaussian atom driver (``events._fv_rounds``, one path), from the
    finite prefix of the path."""
    _require_fv(t)
    check_path_count(path_index + 1)
    check_event_count(_event_types(t.jumps.atoms_or_none())[0], horizon)
    levels = np.array([float(z)])
    from .events import _fv_rounds  # compiled only once an event engine runs

    for _, chunk in _fv_rounds(t, horizon, seed, stream, np.array([path_index]),
                               _ONE_PATH_ELEMS):
        _, r, time, value, cont, _ = chunk.first_crossings(levels, True)
        if len(r):
            return FirstPassage(True, float(time[0]), float(value[0]), bool(cont[0]))
    return FirstPassage(False)


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
