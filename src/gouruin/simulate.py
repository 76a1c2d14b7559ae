"""Jump-adapted Monte Carlo simulation of the driving pair and the risk path.

Each path input has one owner.  ``time_grid`` is the grid of every grid
engine: n = max(1, round(T / step)) equal steps, ending exactly at T.
``_fv_events`` is the one atom-jump sampler of both per-path engines: one
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

Per-path randomness comes from a counter-based generator keyed by
(seed, stream, path_index); paths are reproducible independently of
execution order and worker count.
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
    """Counter-based per-path generator keyed by (seed, stream, path_index);
    independent of draw order elsewhere.

    It is ``Generator(Philox(SeedSequence(seed, spawn_key=(stream,
    path_index))))`` bit for bit, but the Philox key comes from
    ``_key_block``, which hashes a block of path indices at once.  Indices
    of two words or more (>= 2**32) take the ``SeedSequence`` route."""
    seed, stream, path_index = int(seed), int(stream), int(path_index)
    for name, v in (("seed", seed), ("stream", stream), ("path index", path_index)):
        if v < 0:
            raise InvalidModelError(f"{name} must be a non-negative integer, got {v}")
    generator, philox, fixed_key = _philox_parts()
    if path_index >> 32:
        from numpy.random import SeedSequence

        return generator(philox(SeedSequence(seed, spawn_key=(stream, path_index))))
    block, row = divmod(path_index, _KEY_BLOCK)
    return generator(philox(fixed_key(_key_block(seed, stream, block)[row])))


# numpy's SeedSequence hash (pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_KEY_BLOCK = 256  # path indices per key block; divides 2**32


def _words(n: int) -> list[int]:
    """32-bit little-endian words of a non-negative int (one word for 0)."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _hashmix(v, h: int, mult: int = _MULT_A):
    """One hashmix step, on an int or a uint32 array: the mixed value and
    the updated hash constant."""
    h_next = h * mult & _MASK32
    v = (v ^ h) * h_next & _MASK32
    return v ^ (v >> 16), h_next


def _mix(x: int, y):
    """Mix of a pool word with a hashed word (an int or a uint32 array)."""
    r = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


@lru_cache(maxsize=64)
def _pool_prefix(seed: int, stream: int) -> tuple[list[int], int]:
    """The SeedSequence pool after every entropy word but the path index's
    (the seed's words padded to four, then the stream's), and the hash
    constant it continues with."""
    run = _words(seed)
    entropy = run + [0] * (4 - len(run)) + _words(stream)
    pool, h = [], _INIT_A
    for w in entropy[:4]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    for w in entropy[4:]:
        for dst in range(4):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    return pool, h


@lru_cache(maxsize=8)
def _key_block(seed: int, stream: int, block: int) -> np.ndarray:
    """Philox keys (two uint64 each, read-only) of the path indices from
    ``block * _KEY_BLOCK`` to the next block: the index word is mixed into
    the prefix pool and ``generate_state(2, uint64)`` is applied, in uint32
    arithmetic over the whole block."""
    pool, h = _pool_prefix(seed, stream)
    start = block * _KEY_BLOCK
    word = np.arange(start, start + _KEY_BLOCK, dtype=np.uint64).astype(np.uint32)
    state, h_out = [], _INIT_B
    for dst in range(4):
        v, h = _hashmix(word, h)
        v, h_out = _hashmix(_mix(pool[dst], v), h_out, _MULT_B)
        state.append(v.astype(np.uint64))
    keys = np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)
    keys.flags.writeable = False
    return keys


@lru_cache(maxsize=None)
def _philox_parts():
    """``Generator``, ``Philox`` and a seed sequence that hands Philox a
    precomputed key, numpy's interface for custom seed sequences.  Defined
    on first use, so that importing the package does not load
    ``numpy.random``."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        """The seed sequence of one path: its state is its Philox key."""

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

        def __reduce__(self):  # the class is local; pickle through a module function
            return _fixed_key, (self.key,)

    return Generator, Philox, FixedKey


def _fixed_key(key):
    return _philox_parts()[2](key)


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


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The cdf that ``Generator.choice`` builds from the probabilities
    ``weights / weights.sum()``: ``cdf.searchsorted(rng.random(n),
    side="right")`` draws choice's n indices, bit for bit, at a fraction of
    its cost."""
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


def _truncated_density_jumps(
    table: _DensityJumpTable, rng: np.random.Generator, horizon: float
):
    """The jumps of one path from a jump table, as ``_fv_events`` gives
    them: arrival times, x and y.  A jump lands in a cell drawn with its
    probability, uniformly within it."""
    if table.cdf is None:
        return np.empty(0), np.empty(0), np.empty(0)
    tau = _arrival_times(rng, table.rate, horizon)
    xs, ys = table.xs, table.ys
    cells = table.cdf.searchsorted(rng.random(len(tau)), side="right")
    ix, iy = np.unravel_index(cells, (len(xs) - 1, len(ys) - 1))
    u = rng.random((len(tau), 2))
    return tau, xs[ix] + u[:, 0] * (xs[1] - xs[0]), ys[iy] + u[:, 1] * (ys[1] - ys[0])


def _pair_jumps(t: LevyTriplet2D, jump_table: _DensityJumpTable | None, rng, horizon):
    """One path's jumps for ``simulate_pair``, (arrival times, x, y) in
    time order: those of the density jump table, or the atoms' from
    ``_fv_events``, as on ``exact_fv``."""
    if jump_table is not None:
        return _truncated_density_jumps(jump_table, rng, horizon)
    return _fv_events(t, horizon, rng)


def _jump_adapted_grid(grid: np.ndarray, jumps):
    """Each row's ``grid`` merged with its jump instants, as rows padded
    with the horizon: the instants, the jump sizes summed onto their
    instants (a jump at a grid instant, and jumps at one instant, share
    it), a jump flag per instant, and the length of each row.  ``jumps``
    holds each row's (times, x, y) in time order."""
    n_rows = len(jumps)
    times, jump_sizes_x, jump_sizes_y = (np.concatenate(a) for a in zip(*jumps))
    rows = np.repeat(np.arange(n_rows), [len(j[0]) for j in jumps])
    at = np.searchsorted(grid, times)  # grid instants before each jump
    off = grid[at] != times  # the jump adds an instant ...
    new = off.copy()  # ... and is the first jump there
    new[1:] &= (times[1:] != times[:-1]) | (rows[1:] != rows[:-1])
    added = np.bincount(rows[new], minlength=n_rows)
    col = at + np.cumsum(new) - new - (np.cumsum(added) - added)[rows] - (off & ~new)
    lengths = len(grid) + added
    merged = np.full((n_rows, int(lengths.max())), grid[-1])
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


def simulate_pair(
    t: LevyTriplet2D, cfg: PathConfig, path_index: int = 0, stream: int = 0
) -> Path:
    """Sample the driving pair on the jump-adapted grid of ``time_grid``.

    Brownian increments come from the exact bivariate normal with covariance
    ``Sigma * dt``, jump arrivals are exact exponential clocks merged into
    the grid, and drift is applied in closed form.
    """
    rng = path_rng(cfg.seed, path_index, stream)
    table = _density_jump_table(t, cfg.truncation_eps)
    grid = time_grid(cfg.horizon, cfg.step)
    p, lengths = _pair_chunk(t, grid, table, [(rng, *_pair_jumps(t, table, rng, cfg.horizon))])
    return p.row(0, lengths[0])


def _pair_chunk(t: LevyTriplet2D, grid: np.ndarray, jump_table, draws):
    """Rows of ``simulate_pair`` on ``grid`` from each row's (generator,
    arrival times, x, y), the last three from ``_pair_jumps``;
    ``jump_table`` is the driver's ``_density_jump_table``.  The paths are
    padded rows, returned with the length of each row.

    Each row draws the normals of its Brownian increments from its own
    generator, sized by its own grid."""
    if jump_table is None:
        bx, by = _uncompensated_drift(t)
    else:
        bx, by = t.gamma_tilde[0] - jump_table.comp[0], t.gamma_tilde[1] - jump_table.comp[1]
    times, jump_x, jump_y, flags, lengths = _jump_adapted_grid(grid, [d[1:] for d in draws])
    l11, l21, l22 = _chol2x2(t.sigma)
    chol_t = np.array([[l11, 0.0], [l21, l22]]).T
    inc_x, inc_y = np.zeros(times.shape), np.zeros(times.shape)
    for r, (rng, *_) in enumerate(draws):
        inc = rng.standard_normal((lengths[r] - 1, 2)) @ chol_t
        inc_x[r, :len(inc)], inc_y[r, :len(inc)] = inc.T
    root_dt = np.sqrt(np.diff(times, axis=1))
    xi_left = bx * times + _prefix_sums(inc_x[:, :-1] * root_dt)
    eta_left = by * times + _prefix_sums(inc_y[:, :-1] * root_dt)
    xi_left = xi_left + _prefix_sums(jump_x[:, :-1])
    eta_left = eta_left + _prefix_sums(jump_y[:, :-1])
    return Path(
        times, xi_left + jump_x, eta_left + jump_y, xi_left, eta_left, flags, (bx, by)
    ), lengths


def compute_Z(p: Path) -> np.ndarray:
    """Discounted integral along the path (along the last axis, so each row
    of a chunk on its own): left-point sums between grid points, plus the
    exact jump contributions with the left-limit integrand."""
    with np.errstate(over="ignore", invalid="ignore"):
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


class States(NamedTuple):
    """The monitored instants of a chunk's paths, one row per path in time
    order, padded past each row's ``length``: the time, xi, Z, V = e^xi (z +
    Z) and whether a jump happened there.  V is taken from the row's finite
    prefix (+inf past an overflow of Z on the per-path engines)."""

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
    ``states``."""

    ruin = np.negative  # keys are Z unless a chunk says otherwise
    values_by_column = True  # else crossing columns are needed only for times

    @cached_property
    def finite(self) -> np.ndarray:
        """Rows whose final Z and xi are finite.  Overflow carries through
        the running sums, so these rows are finite throughout."""
        return np.isfinite(self.z_T) & np.isfinite(self.xi_T)

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


class _EulerChunk(_Chunk):
    """A chunk of ``mixed_grid`` paths on their jump-adapted grids, with Z,
    from each row's (generator, arrival times, x, y)."""

    def __init__(self, t, grid, jump_table, draws):
        self.p, lengths = _pair_chunk(t, grid, jump_table, draws)
        self.Z = compute_Z(self.p)
        rows, last = np.arange(len(draws)), lengths - 1
        self.z_T, self.xi_T = self.Z[rows, last], self.p.xi[rows, last]
        self.lengths = lengths
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

    def states(self, z):
        """The grid and jump instants, with post-jump values at a jump."""
        with np.errstate(invalid="ignore"):
            v = self.growth * (z + _inf_past_overflow(self.Z))
        return States(self.p.times, self.p.xi, self.Z, v, self.p.jump_flags, self.lengths)


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


@lru_cache(maxsize=16)
def _event_types(atoms) -> tuple:
    """Total rate, the atoms' ``_choice_cdf`` (None for fewer than two), and
    their x and y, of a tuple of atoms: the per-driver part of
    ``_fv_events``."""
    rates, xs, ys = (np.array([getattr(a, f) for a in atoms]) for f in ("rate", "x", "y"))
    for a in (xs, ys):
        a.setflags(write=False)  # shared by every caller
    return rates.sum(), _choice_cdf(rates) if len(atoms) > 1 else None, xs, ys


def _fv_events(t: LevyTriplet2D, horizon: float, rng: np.random.Generator):
    """The atom jumps of one path, (arrival times, x, y): one Poisson clock
    at the total rate, then the atom of each arrival, drawn with its
    probability as ``rng.choice`` draws it.  The superposed clock is exact,
    and it is the one atom-jump sampler of ``exact_fv`` and ``mixed_grid``."""
    total, cdf, xs, ys = _event_types(t.jumps.atoms_or_none())
    tau = _arrival_times(rng, total, horizon)
    n = len(tau)
    if n and cdf is not None:
        kinds = cdf.searchsorted(rng.random(n), side="right")
        return tau, xs[kinds], ys[kinds]
    return tau, xs[:1].repeat(n), ys[:1].repeat(n)  # one atom, or no arrival


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

    def states(self, z):
        """t = 0, then the pre-jump and the post-jump state of each arrival
        (one instant, the second flagged as the jump), then the horizon,
        where e^xi may pass the float range."""
        z_pre, z_post, z_T = self._finite_prefix()
        rows, width = self.tau.shape
        at_end = (np.arange(rows), 2 * self.n + 1)

        def timeline(start, pre, post, end):
            out = np.empty((rows, 2 * width + 1), dtype=np.asarray(pre).dtype)
            out[:, 0], out[:, 1::2], out[:, 2::2] = start, pre, post
            out[at_end] = end
            return out

        z_T = np.where(self.finite, z_T, np.inf).tolist()
        v_T = [_scaled(x, z + zz) for x, zz in zip(self.xi_T.tolist(), z_T)]
        with np.errstate(over="ignore", invalid="ignore"):
            v = timeline(z, np.exp(self.xi_pre) * (z + z_pre),
                         np.exp(self.xi_post) * (z + z_post), v_T)
        return States(
            timeline(0.0, self.tau, self.tau, self.tau[:, -1]),
            timeline(0.0, self.xi_pre, self.xi_post, self.xi_T),
            timeline(0.0, self.z_pre, self.z_post, self.z_T),
            v, timeline(False, False, True, False), 2 * self.n + 2,
        )


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
