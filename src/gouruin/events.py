"""The rounds of the event engines, ``exact_fv`` and ``mixed_grid``: each
marches the live paths of a range forward together, one round of their
next arrivals or instants at a time, carrying each path's state from round
to round (``_fv_rounds``, ``_mixed_rounds``).  The draws, the exact round
builder and the chunk reducer are those of ``simulate``; this module is
compiled only once an event engine runs."""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .model import LevyTriplet2D
from .simulate import (
    _ANGLE,
    _RADIUS,
    Path,
    States,
    _arrival_times,
    _chol2x2,
    _Chunk,
    _counters,
    _event_types,
    _fv_events,
    _fv_state_arrays,
    _hash_uniforms,
    _inf_past_overflow,
    _pair_jumps,
    _pair_rates,
    _prefix_sums,
    _run_counters,
    _running,
    _z_increments,
)


class _Carry:
    """The state of an event engine's live paths between two rounds: one
    entry per live path in each array attribute."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, rows) -> None:
        for name, a in vars(self).items():
            setattr(self, name, a[rows])


def _round_width(budget: int, rows: int, left: float) -> int:
    """Instants per path of the next round: as many as fit ``budget``
    values per array (a column more for the carry), but not far past the
    ``left`` that the paths still expect.  Only the cost depends on it."""
    return int(max(1, min(budget // rows - 1, 1.25 * left + 16)))


def _arrivals_until(seed, stream, ids, pending, index, until, rate, cap):
    """Each row's arrivals from its pending one (drawn, at ``pending`` with
    ``index``) up to ``until``, the first ``cap`` of them and any at the
    time of the last: their clocks (one row each, padded with +inf), their
    count, the time up to which a row holds every arrival (``until``, or
    that of its last), and the first arrival not taken, its clock and
    index."""
    rows = len(ids)
    out = np.full((rows, cap), np.inf)
    count = np.zeros(rows, dtype=np.intp)
    pending, index = pending.copy(), index.copy()

    def take(act, clocks, k):
        r, c = np.nonzero(np.arange(clocks.shape[1]) < k[:, None])
        out[act[r], count[act[r]] + c] = clocks[r, c]
        count[act] += k
        pending[act], index[act] = clocks[np.arange(len(act)), k], index[act] + k

    act = np.flatnonzero(pending <= until)
    while len(act):
        # enough for nearly every row at once: the Poisson mean and 4 sd
        mean = rate * (until[act] - pending[act]).max()
        m = int(max(1, min(cap - count[act].min(), mean + 4.0 * math.sqrt(mean) + 4.0)))
        seq = np.empty((len(act), m + 1))  # arrivals index .. index + m
        seq[:, 0] = pending[act]
        seq[:, 1:] = _arrival_times(seed, stream, _run_counters(ids[act], index[act] + 1, m),
                                    pending[act], rate)
        take(act, seq, np.minimum(np.count_nonzero(seq[:, :m] <= until[act, None], axis=1),
                                  cap - count[act]))
        act = act[(pending[act] <= until[act]) & (count[act] < cap)]
    limit = until.copy()
    full = np.flatnonzero(pending <= until)  # rows cut at ``cap`` arrivals
    limit[full] = out[full, cap - 1]
    while len(tie := full[pending[full] == limit[full]]):  # arrivals at one instant
        out = np.concatenate([out, np.full((rows, 1), np.inf)], axis=1)
        seq = np.empty((len(tie), 2))
        seq[:, 0] = pending[tie]
        seq[:, 1:] = _arrival_times(seed, stream, _run_counters(ids[tie], index[tie] + 1, 1),
                                    pending[tie], rate)
        take(tie, seq, np.ones(len(tie), dtype=np.intp))
    return out, count, limit, pending, index


def _merged_instants(grid, grid_next, clock, clocks, count, until, width):
    """Each row's next ``width`` instants up to ``until``: its grid
    instants from index ``grid_next`` merged with its ``count`` arrival
    ``clocks`` (``_arrivals_until``), an arrival at a grid instant, or at
    the time of the one before, sharing its instant.  Returns the times
    (column 0 the row's ``clock``, later columns past a row's instants the
    horizon), each arrival taken as (row, its column past column 0, its
    order in the row), the arrivals and the grid instants each row takes,
    and the instants it takes."""
    rows, n_steps = len(clock), len(grid) - 1
    ra, q = np.nonzero(np.arange(clocks.shape[1]) < count[:, None])
    a = clocks[ra, q]
    at = np.searchsorted(grid, a)
    on_grid = grid[at] == a
    dup = np.zeros(len(a), dtype=bool)
    dup[1:] = (a[1:] == a[:-1]) & (ra[1:] == ra[:-1])
    adds = ~(on_grid | dup)  # the arrivals that add an instant
    before = np.cumsum(adds) - adds
    before -= before[np.searchsorted(ra, ra)]  # ... earlier in the row
    col = at - grid_next[ra] + before - (dup & ~on_grid)
    inside = col < width
    new = adds & inside
    n_added = np.bincount(ra[new], minlength=rows)
    # the grid instant of each column, past the added ones
    at_grid = grid_next[:, None] + np.arange(width)
    grown = np.flatnonzero(n_added)
    if len(grown):
        added = np.zeros((len(grown), width), dtype=np.intp)
        added[np.searchsorted(grown, ra[new]), col[new]] = 1
        at_grid[grown] -= np.cumsum(added, axis=1)
    times = np.empty((rows, width + 1))
    times[:, 0] = clock
    times[:, 1:] = grid[np.minimum(at_grid, n_steps)]
    times[ra[new], col[new] + 1] = a[new]
    # the grid instants up to the time where the row holds every arrival,
    # as many as fit beside its arrivals
    grid_taken = np.minimum(width - n_added, np.searchsorted(grid, until, side="right") - grid_next)
    taken = np.bincount(ra[inside], minlength=rows)
    return times, (ra[inside], col[inside], q[inside]), taken, grid_taken, grid_taken + n_added


def _coordinate(drift, inc, root_dt, times, brownian, jumps, carried, jumped, length):
    """One coordinate (xi or eta) of a round's instants, from the carried
    running sums of its Brownian increments and of its jumps: the drift
    plus the Brownian sum, plus the jumps before an instant for the left
    limit, and the jumps there too for the value; column 0 is left for the
    carried state.  Returns the left limits, the values, and both running
    sums at each row's last instant.  ``inc`` (None for a zero factor)
    holds the increments per unit root time; only the rows ``jumped``
    sum their jumps."""
    r = np.arange(len(times))
    if inc is None:
        base = drift * times[:, 1:] + brownian[:, None]
    else:
        sums = _running(brownian, None, inc.shape[1])
        np.multiply(inc, root_dt, out=sums[:, 1:])
        np.cumsum(sums, axis=1, out=sums)
        base = drift * times[:, 1:] + sums[:, 1:]
        brownian = sums[r, length]
    left, value = np.empty(times.shape), np.empty(times.shape)
    np.add(base, carried[:, None], out=left[:, 1:])
    if len(jumped):
        sums = _prefix_sums(jumps[jumped], carried[jumped])
        left[jumped, 1:] = base[jumped] + sums[:, :-1]
        carried = carried.copy()
        carried[jumped] = sums[np.arange(len(jumped)), length[jumped]]
    np.add(left[:, 1:], jumps, out=value[:, 1:])
    return left, value, brownian, carried


def _mixed_rounds(t, grid, seed, stream, ids, budget, stop=None):
    """The rounds of ``mixed_grid`` paths ``ids`` on their jump-adapted
    grids of ``grid``: (path ids, ``_EulerChunk``) pairs in time order, each
    round taking the next instants of every live path, at most ``budget``
    values per array.  A path leaves once it reaches the horizon, or when
    ``stop(ids)`` marks it after a round.

    The instants of a path are the grid instants and its arrivals
    (``_merged_instants``).  Arrival k's clock is drawn as on ``exact_fv``
    and its jump by ``_pair_jumps``, and interval j, the j-th of the path,
    takes both components of its standard 2-d normal from the uniforms at
    (path, j, radius) and (path, j, angle) by Box-Muller
    (``_keyed_increments``).  Every running sum is carried from round to
    round, so a path never depends on its rounds."""
    n_steps, horizon = len(grid) - 1, grid[-1]
    bx, by, rate = _pair_rates(t)
    chol = _chol2x2(t.sigma)
    zeros = np.zeros(len(ids))
    c = _Carry(clock=zeros, xi=zeros, eta=zeros, bx=zeros, by=zeros, jx=zeros, jy=zeros,
               z=zeros, grid_next=np.ones(len(ids), dtype=np.intp),
               interval=np.zeros(len(ids), dtype=np.intp), index=np.zeros(len(ids), dtype=np.intp),
               pending=_arrival_times(seed, stream, _run_counters(ids, 0, 1), zeros, rate)[:, 0])
    first = True
    while len(ids):
        rows = len(ids)
        width = _round_width(budget, rows, n_steps + 1 - c.grid_next.min()
                             + rate * (horizon - c.clock.min()))
        # the arrivals among the next ``width`` instants
        until = grid[np.minimum(c.grid_next + width - 1, n_steps)]
        clocks, count, until, pending, index = _arrivals_until(
            seed, stream, ids, c.pending, c.index, until, rate, width)
        times, (ra, col, q), taken, grid_taken, length = _merged_instants(
            grid, c.grid_next, c.clock, clocks, count, until, width)
        jump_x, jump_y = np.zeros((rows, width)), np.zeros((rows, width))
        flags = np.zeros((rows, width + 1), dtype=bool)
        if len(ra):
            x, y = _pair_jumps(t, seed, stream, _counters(ids[ra], c.index[ra] + q))
            np.add.at(jump_x, (ra, col), x)
            np.add.at(jump_y, (ra, col), y)
            flags[ra, col + 1] = True
        root_dt = np.sqrt(np.diff(times, axis=1))
        jumped = np.unique(ra)
        (xi_left, xi, c.bx, c.jx), (eta_left, eta, c.by, c.jy) = (
            _coordinate(drift, inc, root_dt, times, brownian, jumps, carried, jumped, length)
            for drift, inc, brownian, jumps, carried in zip(
                (bx, by), _keyed_increments(seed, stream, ids, c.interval, width, *chol),
                (c.bx, c.by), (jump_x, jump_y), (c.jx, c.jy)))
        xi_left[:, 0], eta_left[:, 0] = xi[:, 0], eta[:, 0] = c.xi, c.eta
        p = Path(times, xi, eta, xi_left, eta_left, flags, (bx, by))
        ended = c.grid_next + grid_taken > n_steps
        chunk = _EulerChunk(p, _prefix_sums(_z_increments(p), c.z), length + 1, first, ended)
        yield ids, chunk
        r = np.arange(rows)
        c.clock, c.xi, c.eta, c.z = times[r, length], xi[r, length], eta[r, length], chunk.Z[r, length]
        c.grid_next = c.grid_next + grid_taken
        c.interval = c.interval + length
        c.pending = np.where(taken < count, clocks[r, np.minimum(taken, clocks.shape[1] - 1)],
                             pending)
        c.index = c.index + taken
        keep = ~ended
        if stop is not None:
            keep &= ~stop(ids)
        ids = ids[keep]
        c.keep(keep)
        first = False


def _keyed_increments(seed, stream, ids, interval, width, l11, l21, l22):
    """The Brownian increments of xi and eta per unit root time over
    intervals ``interval`` to ``interval + width - 1`` of paths ``ids``:
    the Cholesky factor times the standard 2-d normal r (cos theta, sin
    theta), r = sqrt(-2 log(1 - u)) and theta = 2 pi v, from the uniforms
    u at (path, j, radius) and v at (path, j, angle).  cos theta and sin
    theta come from t = tan(pi (v - 1/2)) as (t^2 - 1, -2 t) / (1 + t^2).
    A component whose factor is zero is None: its running sums are those
    of zeros."""
    if not (l11 or l21 or l22):
        return None, None
    counters = _run_counters(ids, interval, width)
    radius = _hash_uniforms(seed, stream, _RADIUS, counters)
    np.log1p(np.negative(radius, out=radius), out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    t = _hash_uniforms(seed, stream, _ANGLE, counters)
    t -= 0.5
    t *= math.pi
    np.tan(t, out=t)
    t2 = t * t
    radius /= t2 + 1.0
    first = second = None
    if l11 or l21:
        t2 -= 1.0
        first = np.multiply(t2, radius, out=t2)  # r cos theta
    if l22:
        t *= -2.0
        second = np.multiply(t, radius, out=t)  # r sin theta
    inc_y = None
    if l21 and l22:
        inc_y = l21 * first + l22 * second
    elif l21 or l22:
        inc_y = l21 * first if l21 else l22 * second
    return l11 * first if l11 else None, inc_y


class _EulerChunk(_Chunk):
    """A round of ``mixed_grid`` paths on their jump-adapted grids
    (``_mixed_rounds``), with Z.  Column 0 holds each row's last instant
    before the round (t = 0 on the ``first`` round, whose instants start
    there), then come the round's instants, ``lengths`` columns in all,
    padded with the horizon; the rows that reach the horizon have
    ``ended``."""

    def __init__(self, p, Z, lengths, first, ended):
        self.p, self.Z, self.lengths = p, Z, lengths
        self.start = 0 if first else 1
        rows, last = np.arange(len(Z)), lengths - 1
        self.z_end, self.xi_end = Z[rows, last], p.xi[rows, last]
        self.z_T = np.where(ended, self.z_end, math.nan)  # Z at the horizon, where reached

    def z_at(self, time):
        """Z at the first grid or jump instant at or after ``time`` (before
        the horizon), on the rows whose round holds that instant."""
        k = np.count_nonzero(self.p.times < time, axis=1)
        held = (self.p.times[:, 0] < time) & (k < self.lengths)
        z = self.Z[np.arange(len(k)), np.minimum(k, self.Z.shape[1] - 1)]
        return np.where(held, z, math.nan)

    @cached_property
    def growth(self) -> np.ndarray:
        """e^xi, the factor of V = e^xi (z + Z)."""
        with np.errstate(over="ignore"):
            return np.exp(self.p.xi)

    def crossing_key(self):
        """Z at every grid and jump instant of the round in its finite
        prefix where V has the sign of z + Z (e^xi > 0).  Overflow carries
        through the running sums, so only a chunk with a non-finite row, or
        an xi near the underflow of e^xi, pays for the masking."""
        cols = np.arange(self.Z.shape[1])
        keep = (cols >= self.start) & (cols < self.lengths[:, None])
        if not self.finite.all() or self.p.xi.min() < -700.0:
            keep &= (self.growth > 0.0) & np.isfinite(self.Z)
        return np.where(keep, self.Z, np.inf)

    def crossings(self, z, r, c, want_times):
        with np.errstate(over="ignore"):
            value = np.exp(self.p.xi[r, c]) * (z + self.Z[r, c])
        return self.p.times[r, c], value, ~self.p.jump_flags[r, c]

    def states(self, z):
        """The round's grid and jump instants, with post-jump values at a
        jump."""
        s = self.start
        with np.errstate(invalid="ignore"):
            v = self.growth[:, s:] * (z + _inf_past_overflow(self.Z[:, s:]))
        return States(self.p.times[:, s:], self.p.xi[:, s:], self.Z[:, s:], v,
                      self.p.jump_flags[:, s:], self.lengths - s)


def _fv_rounds(t: LevyTriplet2D, horizon: float, seed: int, stream: int, ids, budget: int,
               stop=None):
    """The rounds of ``exact_fv`` paths ``ids``: (path ids, ``_ExactChunk``)
    pairs in time order, each round drawing the next arrivals of every live
    path (``_arrival_times``, ``_fv_events``), at most ``budget`` values per
    array.  A path leaves once its clock passes the horizon, or when
    ``stop(ids)`` marks it after a round."""
    rate = _event_types(t.jumps.atoms_or_none())[0]
    zeros = np.zeros(len(ids))
    carry = _Carry(k=np.zeros(len(ids), dtype=np.intp), clock=zeros, xi=zeros, z=zeros,
                   jx=zeros, seg=zeros, jz=zeros)
    first = True
    while len(ids):
        width = _round_width(budget, len(ids), rate * (horizon - carry.clock.min()))
        counters = _run_counters(ids, carry.k, width)
        tau = _arrival_times(seed, stream, counters, carry.clock, rate)
        jx, jy = _fv_events(t, seed, stream, counters) if rate > 0.0 else (0.0, 0.0)
        chunk = _fv_state_arrays(t, carry, tau, jx, jy, horizon, first)
        yield ids, chunk
        carry.k = carry.k + width
        keep = ~chunk.ended
        if stop is not None:
            keep &= ~stop(ids)
        ids = ids[keep]
        carry.keep(keep)
        first = False
