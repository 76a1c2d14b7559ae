"""Reference constructions that only tests use: each rebuilds a quantity the
package computes another way, so a test can compare the two."""

import enum
import math
from dataclasses import dataclass

import numpy as np

from gouruin.errors import UndeterminedError
from gouruin.model import (
    LevyTriplet2D,
    MarginalTriplet,
    _coordinate_correction,
    _uncompensated_drift,
    s_band,
    s_jump,
    w_transform,
)
from gouruin.numerics import INF
from gouruin.simulate import (
    FirstPassage,
    Path,
    _chol2x2,
    _event_types,
    _pair_rates,
    _segment_crossing_time,
    brownian_part,
    time_grid,
)


def from_marginals(
    m_xi: MarginalTriplet, m_eta: MarginalTriplet, brownian_cov: float, jumps
) -> LevyTriplet2D:
    """Rebuild a pair triplet from its marginals plus the joint jump measure.

    The ball drift is chosen so that recomputing the marginals reproduces the
    inputs bit for bit; the reconstruction nudges by a few ulps to absorb
    floating-point rounding of the correction round trip.
    """

    def solve(gamma: float, corr: float) -> float:
        g = gamma - corr
        for _ in range(8):
            if g + corr == gamma:
                return g
            g = math.nextafter(g, g + (gamma - (g + corr)))
        return g

    cx = _coordinate_correction(jumps, "x")
    cy = _coordinate_correction(jumps, "y")
    sigma = ((m_xi.sigma2, brownian_cov), (brownian_cov, m_eta.sigma2))
    return LevyTriplet2D((solve(m_xi.gamma, cx), solve(m_eta.gamma, cy)), sigma, jumps)


class SmallJumpVariation(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNDETERMINED = "undetermined"


def small_jump_variation(t: LevyTriplet2D, u: float) -> SmallJumpVariation:
    """Decides whether the small positive jumps of S(u) have finite mass-size
    integral; always finite on the atom tier."""
    if t.jumps.atoms_or_none() is not None:
        return SmallJumpVariation.FINITE
    try:
        value = t.jumps.integrate(
            lambda x, y: max(s_jump(x, y, u), 0.0), [s_band(u, 0.0, 1.0)], nonneg=True
        )
    except UndeterminedError:
        return SmallJumpVariation.UNDETERMINED
    return SmallJumpVariation.INFINITE if value == INF else SmallJumpVariation.FINITE


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


def ks_distance(cdf, ref) -> float:
    """Sup distance between an ``EmpiricalCDF`` and a reference cdf
    callable."""
    ref_values = np.asarray(ref(cdf.values), dtype=float)
    steps = np.arange(1, cdf.n + 1) / cdf.n
    return float(max(np.max(np.abs(steps - ref_values)),
                     np.max(np.abs(steps - 1.0 / cdf.n - ref_values))))


# ---------------------------------------------------------------------------
# The keyed layout of the event engines, one counter at a time
# ---------------------------------------------------------------------------

MASK64 = (1 << 64) - 1
GAMMA64 = 0x9E3779B97F4A7C15
GAP, ATOM, CELL_X, CELL_Y, RADIUS, ANGLE = range(6)  # draw kinds of a counter


def _finalize(x: int) -> int:
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)


def keyed_uniform(seed: int, stream: int, path: int, index: int, kind: int) -> np.float64:
    """The uniform of draw ``kind`` at ``index`` of ``path``: the splitmix64
    output at counter path << 32 | index << 3 | kind of the sequence keyed
    by (seed, stream), in Python integers, to 53 bits."""
    key = _finalize(_finalize(seed & MASK64) ^ (stream + 1) * GAMMA64 & MASK64)
    counter = path << 32 | index << 3 | kind
    return np.float64((_finalize((counter * GAMMA64 + key) & MASK64) >> 11) * 2.0 ** -53)


class KeyedDraws:
    """The draws of one event-engine path, one counter at a time.  Scalar
    arithmetic goes through numpy's float64 scalars, as the engines' arrays
    do."""

    def __init__(self, seed, stream, path):
        self.seed, self.stream, self.path = seed, stream, path

    def u(self, index, kind):
        return keyed_uniform(self.seed, self.stream, self.path, index, kind)

    def arrivals(self, rate, horizon):
        """Arrival indices and clocks up to the horizon: gap k is -log1p(-u)
        / rate, the clock a sequential sum."""
        clock, k = np.float64(0.0), 0
        while rate > 0.0:
            clock = clock + -np.log1p(-self.u(k, GAP)) / rate
            if clock > horizon:
                return
            yield k, clock
            k += 1

    def atom(self, k, cdf, xs, ys):
        """The jump of arrival k: atom ``cdf.searchsorted(u)``."""
        if cdf is None:
            return xs[0], ys[0]
        i = int(np.searchsorted(cdf, self.u(k, ATOM), side="right"))
        return xs[i], ys[i]

    def cell(self, k, table):
        """The jump of arrival k from a density jump table: its cell, then
        its position in the cell."""
        i = int(np.searchsorted(table.cdf, self.u(k, ATOM), side="right"))
        ix, iy = divmod(i, len(table.ys) - 1)
        return (table.xs[ix] + self.u(k, CELL_X) * (table.xs[1] - table.xs[0]),
                table.ys[iy] + self.u(k, CELL_Y) * (table.ys[1] - table.ys[0]))

    def normal_pair(self, j):
        """Interval j's standard 2-d normal r (cos theta, sin theta), with
        cos and sin from the tangent of the half angle."""
        radius = np.sqrt(-2.0 * np.log1p(-self.u(j, RADIUS)))
        t = np.tan(np.pi * (self.u(j, ANGLE) - 0.5))
        t2 = t * t
        radius = radius / (1.0 + t2)
        return radius * (t2 - 1.0), radius * (-2.0 * t)


def segment_increment(xi0, dt, bx, by):
    """(by / bx) e^-xi0 (1 - e^(-bx dt)) in the engine's order of
    operations."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        disc = np.exp(-np.float64(xi0))
        if abs(bx) < 1e-300:
            return by * disc * dt
        return (-(by / bx) * disc) * np.expm1(-bx * np.float64(dt))


@dataclass
class KeyedExactPath:
    """One ``exact_fv`` path: per arrival its time, the state at the start
    of the segment that it ends, and the states just before and after it;
    then Z and xi at the horizon."""

    tau: np.ndarray
    start: np.ndarray
    xi_start: np.ndarray
    z_start: np.ndarray
    xi_pre: np.ndarray
    xi_post: np.ndarray
    z_pre: np.ndarray
    z_post: np.ndarray
    z_T: float
    xi_T: float
    bx: float
    by: float
    horizon: float

    def keep_finite_prefix(self):
        self.z_pre = np.where(np.isfinite(self.z_pre), self.z_pre, np.inf)
        self.z_post = np.where(np.isfinite(self.z_post), self.z_post, np.inf)
        self.z_T = math.inf

    def _start(self, k):
        if k < len(self.tau):
            return self.start[k], self.xi_start[k], self.z_start[k]
        if k:
            return self.tau[k - 1], self.xi_post[k - 1], self.z_post[k - 1]
        return 0.0, 0.0, 0.0

    def z_at(self, time):
        base_t, base_xi, base_z = self._start(int(np.searchsorted(self.tau, time)))
        return base_z + segment_increment(base_xi, time - base_t, self.bx, self.by)

    def passage(self, z, want_time=True):
        pre_hit = z + self.z_pre < 0.0
        hits = pre_hit | (z + self.z_post < 0.0)
        if hits.any():
            k = int(np.argmax(hits))
            if not pre_hit[k]:
                v_hit = math.exp(self.xi_post[k]) * (z + self.z_post[k])
                return FirstPassage(True, float(self.tau[k]), v_hit, continuous_crossing=False)
        elif z + self.z_T < 0.0:
            k = len(self.tau)
        else:
            return FirstPassage(False)
        t_cross = math.nan
        if want_time:
            start, xi0, z0 = self._start(k)
            t_cross = start + _segment_crossing_time(math.exp(xi0) * (z + z0), self.bx, self.by)
        return FirstPassage(True, t_cross, 0.0, continuous_crossing=True)

    def states(self, z):
        """t = 0, each arrival's pre-jump and post-jump state, the horizon."""
        def pairs(a, b):
            return np.column_stack([a, b]).ravel()

        time = np.concatenate([[0.0], np.repeat(self.tau, 2), [self.horizon]])
        xi = np.concatenate([[0.0], pairs(self.xi_pre, self.xi_post), [self.xi_T]])
        Z = np.concatenate([[0.0], pairs(self.z_pre, self.z_post), [self.z_T]])
        held = np.where(np.isfinite(Z), Z, np.inf)
        if not math.isfinite(self.xi_T):
            held[-1] = math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            V = np.exp(xi) * (z + held)
        try:
            V[-1] = math.exp(self.xi_T) * (z + held[-1])
        except OverflowError:
            V[-1] = math.copysign(math.inf, z + held[-1])
        return time, xi, Z, V, np.array([False] + [False, True] * len(self.tau) + [False])


def keyed_exact_path(t, horizon, seed, path, stream=0) -> KeyedExactPath:
    """``exact_fv`` path ``path`` from its draws, one arrival at a time: xi
    is bx t plus the jumps before, Z the running sum of the segment
    increments plus that of the jump increments."""
    bx, by = _uncompensated_drift(t)
    total, cdf, xs, ys = _event_types(t.jumps.atoms_or_none())
    draws = KeyedDraws(seed, stream, path)
    rows = []
    clock = xi = z = jumps = seg = jz = np.float64(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, tau in draws.arrivals(total, horizon):
            x, y = draws.atom(k, cdf, xs, ys)
            xi_pre = bx * tau + jumps
            seg = seg + segment_increment(xi, tau - clock, bx, by)
            z_pre = seg + jz
            jump_inc = np.exp(-xi_pre) * y
            row = (tau, clock, xi, z, xi_pre, xi_pre + x, z_pre, z_pre + jump_inc)
            rows.append(row)
            clock, xi, z = tau, row[5], row[7]
            jumps, jz = jumps + x, jz + jump_inc
        z_T = seg + segment_increment(xi, horizon - clock, bx, by) + jz
    cols = [np.array(c, dtype=float) for c in zip(*rows)] if rows else [np.empty(0)] * 8
    return KeyedExactPath(*cols, z_T, bx * horizon + jumps, bx, by, horizon)


def keyed_euler_path(t, horizon, step, seed, path, stream=0, jump_table=None,
                     arrivals=None) -> Path:
    """``mixed_grid`` path ``path`` from its draws, one instant at a time:
    the grid of ``time_grid`` merged with the arrivals (jumps at one
    instant summed in arrival order), interval j's normals from its
    uniform pair, and every running sum sequential.  ``arrivals`` replaces
    the keyed clocks where given."""
    bx, by, rate = _pair_rates(t, jump_table)
    l11, l21, l22 = _chol2x2(t.sigma)
    draws = KeyedDraws(seed, stream, path)
    jumps = {}
    clocks = draws.arrivals(rate, horizon) if arrivals is None else enumerate(arrivals)
    for k, tau in clocks:
        if jump_table is None:
            jump = draws.atom(k, *_event_types(t.jumps.atoms_or_none())[1:])
        else:
            jump = draws.cell(k, jump_table)
        jumps.setdefault(float(tau), []).append(jump)
    times = np.union1d(time_grid(horizon, step), list(jumps))
    cols = [[0.0] * 5]  # xi, eta, xi_left, eta_left, flag at t = 0
    b_x = b_y = j_x = j_y = np.float64(0.0)
    for j, (t0, t1) in enumerate(zip(times[:-1], times[1:])):
        first, second = draws.normal_pair(j)
        root_dt = np.sqrt(t1 - t0)
        b_x = b_x + (l11 * first) * root_dt
        b_y = b_y + (l21 * first + l22 * second) * root_dt
        dx = dy = np.float64(0.0)
        for x, y in jumps.get(float(t1), ()):
            dx, dy = dx + x, dy + y
        xi_left, eta_left = (bx * t1 + b_x) + j_x, (by * t1 + b_y) + j_y
        cols.append([xi_left + dx, eta_left + dy, xi_left, eta_left, float(t1) in jumps])
        j_x, j_y = j_x + dx, j_y + dy
    xi, eta, xi_left, eta_left, flags = (np.array(c) for c in zip(*cols))
    return Path(times, xi, eta, xi_left, eta_left, flags.astype(bool), (bx, by))


def keyed_z(p: Path) -> np.ndarray:
    """The discounted integral of a path, one instant at a time: the
    left-point term of each interval, plus the jump term at a jump."""
    z = [np.float64(0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(p.times)):
            inc = np.exp(-p.xi[i - 1]) * (p.eta_left[i] - p.eta[i - 1])
            if p.jump_flags[i]:
                inc = inc + np.exp(-p.xi_left[i]) * (p.eta[i] - p.eta_left[i])
            z.append(z[-1] + inc)
    return np.array(z, dtype=float)
