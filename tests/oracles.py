"""Reference constructions that only tests use: each rebuilds a quantity the
package computes another way, so a test can compare the two."""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from gouruin import regions
from gouruin.classify import Verdict, z_infinity_converges
from gouruin.errors import UndeterminedError
from gouruin.model import (
    X_COORD,
    Y_COORD,
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    MarginalTriplet,
    Pushforward1D,
    _coordinate_correction,
    _in_open_ball,
    _uncompensated_drift,
    _y_band,
    marginal_eta,
    marginal_xi,
    s_band,
    s_coord,
    s_process,
    w_jump,
    w_transform,
    xi_brownian,
)
from gouruin.numerics import BOUNDARY_TOL, INF, NEG_INF, sgn
from gouruin.quadrature import (
    ChordEdge,
    Strip,
    clip_strips_to_box,
    limit_toward_origin,
    strips_outside_ball,
)
from gouruin.simulate import (
    FirstPassage,
    Path,
    _chol2x2,
    _density_jump_table,
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
    try:  # the S(u) jump is its own positive part on the band [0, 1]
        value = t.jumps.integrate(s_coord(u), [s_band(u, 0.0, 1.0)], nonneg=True)
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
# A Python-function box density: the oracle of the closed quadrature route
# ---------------------------------------------------------------------------


def strips_in_annulus(strips, e_in: float, e_out: float) -> list[Strip]:
    """Region intersected with {e_in <= |z| < e_out}: the band between the
    two upper chords, then its mirror image below the x axis.  The rings of
    ``FnBoxDensity``'s limit toward the origin."""
    out = []
    for s in strips:
        out += s.meet(-e_out, e_out, (ChordEdge(e_in),), (ChordEdge(e_out),))
        out += s.meet(-e_out, e_out, (ChordEdge(e_out, -1.0),), (ChordEdge(e_in, -1.0),))
    return out


def nquad_strips(density, strips, integrand, tol) -> tuple[float, float]:
    """Nested quadrature of integrand(x, y) density(x, y) over the strips,
    cut to their non-empty pieces as ``quadrature.integrate_strips`` cuts
    them, with breakpoints where the integrand may have kinks: the piece's
    ``kinks`` in the outer level and y = 0 inside the inner range (|y| of
    exp_tails).  Without them nquad can miss its own error: on one
    uniform_box the unsplit outer level put the eta correction 5.0e-6 off,
    with an error estimate below 1e-9.  Returns the value and the summed
    error estimate."""
    pieces = [p for s in strips for p in s.nonempty_pieces()]
    opts = {"epsabs": tol / max(1, len(pieces)), "epsrel": 1e-9}
    total = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in pieces:
            def y_range(x, _s=s):
                lo = _s.ylo(x)
                return [lo, max(lo, _s.yhi(x))]

            def y_opts(x, _s=s):
                lo, hi = y_range(x)
                return {**opts, "points": [0.0]} if lo < 0.0 < hi else opts

            x_opts = {**opts, "points": s.kinks()} if s.kinks() else opts
            v, e = integrate.nquad(lambda y, x: integrand(x, y) * density(x, y),
                                   [y_range, [s.x0, s.x1]], opts=[y_opts, x_opts])
            total += v
            err += e
    return total, err


class FnBoxDensity:
    """A jump density given by a Python function over a bounded box,
    possibly Levy-infinite at the origin: any integrand, by nested
    quadrature, and a nonnegative one as a limit toward the origin.  It
    shares no code with the closed inner integral of the named families
    beyond the strip geometry, so it is their reference."""

    def __init__(self, fn, box, tol: float = 1e-9):
        self.fn = fn
        self.box = tuple(float(v) for v in box)
        self.tol = float(tol)

    def atoms_or_none(self):
        return None

    def integrate(self, integrand, strips, nonneg: bool = False) -> float:
        clipped = clip_strips_to_box(strips, self.box)

        def over(region):
            value, err = nquad_strips(self.fn, region, integrand, self.tol)
            if err > max(self.tol, 1e-12 * abs(value)):
                raise UndeterminedError("2-d quadrature tolerance not reached", residual=err)
            return value

        if not nonneg:
            return over(clipped)
        eps0 = 0.5
        return limit_toward_origin(
            over(strips_outside_ball(clipped, eps0)),
            lambda e_in, e_out: over(strips_in_annulus(clipped, e_in, e_out)),
            self.tol,
            eps0=eps0,
        )

    def xi_margin(self) -> Pushforward1D:
        return Pushforward1D(self, X_COORD, Strip)

    def eta_margin(self) -> Pushforward1D:
        return Pushforward1D(self, Y_COORD, _y_band)


class RegionBoundaryWarning(UserWarning):
    """The returned threshold borders a region of vanishing mass."""


_U_CAP = 1e12


def bisect_theta(m, i: int, sign: float, vanishing: bool) -> float:
    """Threshold i of any density, by monotone bisection on region mass.

    The search runs over v >= 0 with u = sign * v.  ``vanishing`` means the
    region holds mass near v = 0 and empties past the transition (the
    theta_2 and theta_3 branches); otherwise mass appears beyond the
    transition (theta_4 and theta_1).

    The bracket is on {mass above tolerance}, so the answer is exact only up
    to the rate at which the region mass decays at the threshold: a density
    fading continuously into the critical level resolves to roughly the cube
    root of the mass tolerance, not machine precision.
    """
    tol_mass = regions.mass_tol(m)
    empty_value = {1: NEG_INF, 2: 0.0, 3: 0.0, 4: INF}[i]
    if regions.quadrant_mass(m, i) <= tol_mass:
        return empty_value

    def near(v: float) -> bool:  # v lies on the near side of the transition
        return (regions.region_mass(m, i, sign * v) > tol_mass) == vanishing

    if vanishing and not near(0.0):
        warnings.warn("region mass vanishes next to the returned threshold",
                      RegionBoundaryWarning)
        return 0.0
    lo, hi = 0.0, 1.0
    while near(hi):
        lo = hi
        hi *= 4.0
        if hi > _U_CAP:
            if vanishing:
                return sign * INF
            warnings.warn("region mass stayed empty out to the search cap",
                          RegionBoundaryWarning)
            return empty_value
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if near(mid):
            lo = mid
        else:
            hi = mid
    return sign * 0.5 * (lo + hi)


def bisect_thetas(m) -> regions.ThetaBounds:
    """The four thresholds by ``bisect_theta``: on u >= 0 the A2 region
    empties as u grows while A4 fills; mirrored on u <= 0, A3 empties as u
    falls while A1 fills."""
    return regions.ThetaBounds(
        bisect_theta(m, 1, sign=-1.0, vanishing=False),
        bisect_theta(m, 2, sign=1.0, vanishing=True),
        bisect_theta(m, 3, sign=-1.0, vanishing=True),
        bisect_theta(m, 4, sign=1.0, vanishing=False),
    )


# ---------------------------------------------------------------------------
# The L process, stationarity and degeneracy (atom tier)
# ---------------------------------------------------------------------------


def l_process(t: LevyTriplet2D) -> LevyTriplet2D:
    """Triplet of the pair (xi, L) where L has jumps y e^-x and drift shifted
    by minus the Brownian covariance.  Atom tier only."""
    atoms = t.jumps.atoms_or_none()
    if atoms is None:
        raise UndeterminedError("L-process construction requires the atom tier")
    gx, gy = _uncompensated_drift(t)
    gy -= t.brownian_cov
    new_atoms = [JumpAtom(a.x, a.y * math.exp(-a.x), a.rate) for a in atoms]
    for a in new_atoms:
        if _in_open_ball(a.x, a.y):
            gx += a.rate * a.x
            gy += a.rate * a.y
    return LevyTriplet2D((gx, gy), t.sigma, FiniteAtomSet(new_atoms))


def is_stationary_possible(t: LevyTriplet2D) -> Verdict:
    """Stationarity criterion: the convergence test applied to (-xi, L)."""
    try:
        pair_l = l_process(t)
    except UndeterminedError:
        return Verdict.UNDETERMINED
    atoms = pair_l.jumps.atoms_or_none()
    flipped = LevyTriplet2D(
        (-pair_l.gamma_tilde[0], pair_l.gamma_tilde[1]),
        (
            (pair_l.sigma[0][0], -pair_l.sigma[0][1]),
            (-pair_l.sigma[0][1], pair_l.sigma[1][1]),
        ),
        FiniteAtomSet([JumpAtom(-a.x, a.y, a.rate) for a in atoms]),
    )
    return z_infinity_converges(flipped)


_DEGENERACY_TOL = 1e-9


def is_degenerate(t: LevyTriplet2D) -> float | None:
    """Constant-limit test: returns k != 0 with eta = -k W when the whole
    randomness of eta is the exponential transform of xi, else None."""
    atoms = t.jumps.atoms_or_none()
    k = None
    if atoms is not None:
        for a in atoms:
            if a.x != 0.0:
                w = w_jump(a.x)
                k = -a.y / w
                break
            # A pure eta jump cannot be cancelled by any multiple of W.
            return None
    if k is None and xi_brownian(t):
        k = t.sigma[0][1] / t.sigma_xi2
    if k is None:
        m_xi = marginal_xi(t)
        m_eta = marginal_eta(t)
        if (
            sgn(m_eta.sigma2) == 0
            and abs(m_xi.gamma) > BOUNDARY_TOL
            and t.jumps.atoms_or_none() is not None
        ):
            k = m_eta.gamma / m_xi.gamma
    if k is None or abs(k) <= BOUNDARY_TOL:
        return None
    try:
        s = s_process(t, -k)
    except UndeterminedError:
        return None
    scale = max(1.0, abs(k))
    if abs(s.gamma) > _DEGENERACY_TOL * scale or s.sigma2 > _DEGENERACY_TOL * scale:
        return None
    jump_atoms = s.jumps.atoms_or_none()
    if jump_atoms is not None:
        if any(abs(v) > _DEGENERACY_TOL * scale for v, _ in jump_atoms):
            return None
    else:
        try:
            residual = s.jumps.mass(NEG_INF, 0.0) + s.jumps.mass(0.0, INF)
        except UndeterminedError:
            return None
        if residual > _DEGENERACY_TOL:
            return None
    return k


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


def keyed_euler_path(t, horizon, step, seed, path, stream=0, arrivals=None) -> Path:
    """``mixed_grid`` path ``path`` from its draws, one instant at a time:
    the grid of ``time_grid`` merged with the arrivals (jumps at one
    instant summed in arrival order, each an atom or a cell of the density
    family's jump table), interval j's normals from its uniform pair, and
    every running sum sequential.  ``arrivals`` replaces the keyed clocks
    where given."""
    bx, by, rate = _pair_rates(t)
    l11, l21, l22 = _chol2x2(t.sigma)
    draws = KeyedDraws(seed, stream, path)
    atoms = t.jumps.atoms_or_none()
    jumps = {}
    clocks = draws.arrivals(rate, horizon) if arrivals is None else enumerate(arrivals)
    for k, tau in clocks:
        if atoms is not None:
            jump = draws.atom(k, *_event_types(atoms)[1:])
        else:
            jump = draws.cell(k, _density_jump_table(t.jumps))
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
