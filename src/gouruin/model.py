"""Characteristic-triplet model of a bivariate Levy process and its transforms.

A driving pair of Levy processes is described by the triplet
``((gamma_tilde_xi, gamma_tilde_eta), Sigma, Pi)`` where the drift pair uses
the Euclidean-ball truncation ``|z| < 1`` in the plane, ``Sigma`` is the
Gaussian covariance, and ``Pi`` is the jump measure.  One-dimensional
marginal triplets use the interval truncation ``|x| < 1``; the two
conventions are bridged by a single correction integral over the set of
jumps that are small in one convention but large in the other, namely
``{|coordinate| < 1} minus the unit ball``.

Two measure tiers are supported:

* atom tier: finitely many jump atoms, every operation is a finite sum,
* density tier: a named density family over a bounded box (or a density on
  a segment of a coordinate axis), every region integral is adaptive
  quadrature with a declared absolute tolerance, and decisions that
  quadrature cannot resolve raise ``UndeterminedError`` rather than
  guessing.

Beyond marginals the module builds two derived processes used by the
classifiers:

* the exponential transform W with ``exp(-xi) = stochexp(W)``: Brownian part
  ``-B_xi``, jump map ``x -> exp(-x) - 1``, drift fixed by the requirement
  that the Doleans-Dade formula reproduce ``exp(-xi)``; the (xi, W) pair
  triplet is built on the atom tier only, and W's 1-d drift comes from the
  xi marginal alone on both tiers,
* the test process ``S(u) = eta - u W`` whose subordinator property decides
  ruin.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import (
    InvalidModelError,
    NotApplicableError,
    NotFiniteVariationError,
    NotSupportedError,
    UndeterminedError,
)
from .numerics import BOUNDARY_TOL, INF, NEG_INF, checked_add
from .quadrature import (
    AffineY,
    BandEdge,
    ChordEdge,
    ConstEdge,
    Strip,
    clip_strips_to_box,
    integrate_strips,
    limit_toward_point_1d,
    quad_1d,
    strips_outside_ball,
)


def w_jump(x: float) -> float:
    """Jump of W produced by a jump ``x`` of xi: ``exp(-x) - 1``."""
    return math.expm1(-x)


def s_jump(x: float, y: float, u: float) -> float:
    """Jump of S(u) = eta - u W produced by a pair jump (x, y)."""
    return y - u * math.expm1(-x)


def s_band(u: float, lo: float, hi: float) -> Strip:
    """The pair jumps whose S(u) jump y - u(e^-x - 1) lies in [lo, hi]."""
    return Strip(lower=(BandEdge(u, lo),), upper=(BandEdge(u, hi),))


def _lt(a: float, b: float) -> bool:
    """Strict a < b with a dead band: boundary cases count as not-less."""
    return b - a > BOUNDARY_TOL


def _in_open_ball(x: float, y: float) -> bool:
    return _lt(x * x + y * y, 1.0)


def _uncompensated_drift(t: LevyTriplet2D) -> tuple[float, float]:
    """Ball drift minus rate * (x, y) of every atom in the open unit ball;
    the plain ball drift on the density tier."""
    bx, by = t.gamma_tilde
    for a in t.jumps.atoms_or_none() or ():
        if _in_open_ball(a.x, a.y):
            bx -= a.rate * a.x
            by -= a.rate * a.y
    return bx, by


def _in_open_interval(v: float) -> bool:
    return _lt(abs(v), 1.0)


# ---------------------------------------------------------------------------
# Jump measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpAtom:
    """One Poisson jump type of the pair: jump (x, y) at intensity ``rate``."""

    x: float
    y: float
    rate: float

    def __post_init__(self):
        if self.x == 0.0 and self.y == 0.0:
            raise InvalidModelError("jump atom at the origin is not a jump")
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise InvalidModelError(f"atom rate must be positive finite, got {self.rate}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidModelError("atom coordinates must be finite")


@dataclass(frozen=True)
class FiniteAtomSet:
    """Finite-activity jump measure given by an explicit atom list."""

    atoms: tuple[JumpAtom, ...]

    def __init__(self, atoms: Sequence[JumpAtom]):
        object.__setattr__(self, "atoms", tuple(atoms))

    def atoms_or_none(self):
        return self.atoms

    def xi_margin(self) -> "Atoms1D":
        return Atoms1D([(a.x, a.rate) for a in self.atoms if a.x != 0.0])

    def eta_margin(self) -> "Atoms1D":
        return Atoms1D([(a.y, a.rate) for a in self.atoms if a.y != 0.0])


class BoxDensity:
    """A named density family on its bounded box; ``density_from_json``
    builds it from a checked spec.  ``fn`` is the density and
    ``y_moments`` its closed y-moments (``integrate_strips``)."""

    def __init__(self, kind: str, params: dict, box, tol: float):
        x0, x1, y0, y1 = (float(v) for v in box)
        if not (x1 > x0 and y1 > y0):
            raise InvalidModelError("density box must have positive area")
        if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
            raise InvalidModelError("density box must be bounded")
        family = _DENSITY_FAMILIES[kind]
        self.kind = kind
        self.params = dict(params)
        self.box = (x0, x1, y0, y1)
        self.tol = float(tol)
        self.fn = family.density(self.params)
        self.y_moments = family.y_moments(self.params)

    def atoms_or_none(self):
        return None

    def integrate(self, integrand: AffineY, strips, nonneg: bool = False) -> float:
        """Strip integral of an ``AffineY`` integrand.  The family's mass is
        finite, so a nonnegative integrand (``nonneg``) needs no limit
        toward the origin: its integral is the plain one, and finite."""
        return integrate_strips(
            self.y_moments, clip_strips_to_box(strips, self.box), integrand, self.tol
        )

    def xi_margin(self) -> "Pushforward1D":
        return Pushforward1D(self, X_COORD, Strip)

    def eta_margin(self) -> "Pushforward1D":
        return Pushforward1D(self, Y_COORD, _y_band)


class LineDensity:
    """Jump measure supported on a segment of a coordinate axis.

    ``axis='y'`` places mass at points (0, t), ``axis='x'`` at (t, 0),
    with 1-d density ``fn(t)`` for t in [lo, hi].
    """

    def __init__(self, axis: str, fn, lo: float, hi: float, tol: float = 1e-9):
        if axis not in ("x", "y"):
            raise InvalidModelError("axis must be 'x' or 'y'")
        if not (hi > lo):
            raise InvalidModelError("line support must have positive length")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidModelError("line support must be bounded")
        self.axis = axis
        self.fn = fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.tol = float(tol)

    def atoms_or_none(self):
        return None

    def _point(self, t: float) -> tuple[float, float]:
        return (0.0, t) if self.axis == "y" else (t, 0.0)

    def _t_segments(self, strips) -> list[tuple[float, float]]:
        segs = []
        for s in strips:
            if self.axis == "x":
                segs += s.x_axis_segments(self.lo, self.hi)
            elif s.x0 <= 0.0 <= s.x1:
                a, b = max(self.lo, s.ylo(0.0)), min(self.hi, s.yhi(0.0))
                if b > a:
                    segs.append((a, b))
        return segs

    def integrate(self, integrand, strips, nonneg: bool = False) -> float:
        rule = _nonneg_1d if nonneg else quad_1d
        total = 0.0
        for a, b in self._t_segments(strips):
            g = lambda t: self.fn(t) * integrand(*self._point(t))
            total = checked_add(total, rule(g, a, b, self.tol))
        return total

    def xi_margin(self):
        if self.axis == "x":
            return Density1D(self.fn, self.lo, self.hi, self.tol)
        return Atoms1D([])

    def eta_margin(self):
        if self.axis == "y":
            return Density1D(self.fn, self.lo, self.hi, self.tol)
        return Atoms1D([])


def _nonneg_1d(g, a: float, b: float, tol: float) -> float:
    """Integral of a nonnegative ``g`` over [a, b]; 0, where ``g`` may be
    Levy-singular, is approached as a limit when it lies in [a, b]."""
    if not a <= 0.0 <= b:
        return quad_1d(g, a, b, tol)
    left = limit_toward_point_1d(g, 0.0, a, tol) if a < 0.0 else 0.0
    right = limit_toward_point_1d(g, 0.0, b, tol) if b > 0.0 else 0.0
    return checked_add(left, right)


# ---------------------------------------------------------------------------
# One-dimensional measures (marginals and pushforwards)
# ---------------------------------------------------------------------------


class Atoms1D:
    """Finite 1-d jump measure; zero-size jumps are not jumps and are dropped."""

    def __init__(self, pairs: Sequence[tuple[float, float]]):
        self.pairs: tuple[tuple[float, float], ...] = tuple(
            (float(v), float(r)) for v, r in pairs if v != 0.0
        )

    def atoms_or_none(self):
        return self.pairs

    def mass(self, a: float, b: float) -> float:
        return sum(r for v, r in self.pairs if _lt(a, v) and _lt(v, b))

    def integrate(self, fn, a: float, b: float, nonneg: bool = False) -> float:
        return sum(r * fn(v) for v, r in self.pairs if _lt(a, v) and _lt(v, b))


class Density1D:
    """1-d jump density on [lo, hi], possibly Levy-infinite at 0."""

    def __init__(self, fn, lo: float, hi: float, tol: float = 1e-9):
        self.fn = fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.tol = float(tol)

    def atoms_or_none(self):
        return None

    def _clip(self, a: float, b: float) -> tuple[float, float]:
        return max(a, self.lo), min(b, self.hi)

    def mass(self, a: float, b: float) -> float:
        return self.integrate(lambda v: 1.0, a, b, nonneg=True)

    def integrate(self, fn, a: float, b: float, nonneg: bool = False) -> float:
        a, b = self._clip(a, b)
        if b <= a:
            return 0.0
        g = lambda v: self.fn(v) * fn(v)
        return (_nonneg_1d if nonneg else quad_1d)(g, a, b, self.tol)


#: The integrands 1, x and y of masses and first moments.
UNIT = AffineY(lambda x: 1.0)
X_COORD = AffineY(lambda x: x)
Y_COORD = AffineY(c1=lambda x: 1.0)


def _y_band(a: float, b: float) -> Strip:
    """The pair jumps with y in [a, b]."""
    return Strip(lower=(ConstEdge(a),), upper=(ConstEdge(b),))


def v_itself(v: float) -> float:
    """The 1-d integrand v of first moments."""
    return v


def s_coord(u: float) -> AffineY:
    """The S(u) jump y - u(e^-x - 1) of a pair jump, as an integrand."""
    return AffineY(lambda x: -u * w_jump(x), lambda x: 1.0)


class Pushforward1D:
    """The image of a 2-d jump measure under a map of the jump, as a 1-d
    measure.  ``coord`` is the map, an ``AffineY`` of the jump, and
    ``band(a, b)`` the strip of the jumps that the map sends into [a, b].
    A 1-d integrand lifts to fn(coord(x, y)), which is affine in y for any
    fn when the map reads x alone; a map that reads y lifts only 1 and v
    (``v_itself``), the integrands of masses and first moments."""

    def __init__(self, base, coord: AffineY, band):
        self.base = base
        self.coord = coord
        self.band = band

    @classmethod
    def s_jumps(cls, base, u: float) -> "Pushforward1D":
        """The jumps of S(u) = eta - u W: the map y - u(e^-x - 1)."""
        return cls(base, s_coord(u), lambda a, b: s_band(u, a, b))

    def atoms_or_none(self):
        return None

    def mass(self, a: float, b: float) -> float:
        return self.base.integrate(UNIT, [self.band(a, b)], nonneg=True)

    def integrate(self, fn, a: float, b: float, nonneg: bool = False) -> float:
        c0 = self.coord.c0
        if self.coord.c1 is None:
            lifted = AffineY(lambda x: fn(c0(x)))
        elif fn is v_itself:
            lifted = self.coord
        else:
            raise NotSupportedError("a map of the jump that reads y lifts only 1 and v")
        return self.base.integrate(lifted, [self.band(a, b)], nonneg)


# ---------------------------------------------------------------------------
# Triplets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyTriplet2D:
    """Characteristic triplet of the pair under the unit-ball truncation."""

    gamma_tilde: tuple[float, float]
    sigma: tuple[tuple[float, float], tuple[float, float]]
    jumps: object

    def __init__(self, gamma_tilde, sigma, jumps):
        try:
            gx, gy = (float(v) for v in gamma_tilde)
        except (TypeError, ValueError):
            raise InvalidModelError(
                f"gamma_tilde must be two numbers, got {gamma_tilde!r}") from None
        try:
            rows = [[float(c) for c in row] for row in sigma]
            (s11, s12), (s21, s22) = rows
        except (TypeError, ValueError):
            raise InvalidModelError(f"sigma must be a 2x2 matrix of numbers, got {sigma!r}") from None
        if not (math.isfinite(gx) and math.isfinite(gy)):
            raise InvalidModelError("drift entries must be finite")
        if any(not math.isfinite(c) for row in rows for c in row):
            raise InvalidModelError("covariance entries must be finite")
        if abs(s12 - s21) > BOUNDARY_TOL:
            raise InvalidModelError("covariance matrix must be symmetric")
        s12 = 0.5 * (s12 + s21)
        scale = max(1.0, s11, s22)
        if s11 < -BOUNDARY_TOL * scale or s22 < -BOUNDARY_TOL * scale:
            raise InvalidModelError("covariance matrix must be positive semidefinite")
        if s11 * s22 - s12 * s12 < -BOUNDARY_TOL * scale * scale:
            raise InvalidModelError("covariance matrix must be positive semidefinite")
        object.__setattr__(self, "gamma_tilde", (gx, gy))
        object.__setattr__(self, "sigma", ((s11, s12), (s12, s22)))
        object.__setattr__(self, "jumps", jumps)

    @property
    def sigma_xi2(self) -> float:
        return self.sigma[0][0]

    @property
    def sigma_eta2(self) -> float:
        return self.sigma[1][1]

    @property
    def brownian_cov(self) -> float:
        return self.sigma[0][1]

    def atoms(self) -> tuple[JumpAtom, ...]:
        a = self.jumps.atoms_or_none()
        if a is None:
            raise NotSupportedError("operation requires the atom tier")
        return a


def zero_gaussian(t: LevyTriplet2D) -> bool:
    """Every entry of the Gaussian covariance lies in the dead band of 0."""
    return all(abs(v) <= BOUNDARY_TOL for row in t.sigma for v in row)


def xi_brownian(t: LevyTriplet2D) -> bool:
    """xi has a Brownian part: its variance lies above the dead band of 0."""
    return t.sigma_xi2 > BOUNDARY_TOL


def rigid_level(sigma) -> float | None:
    """The level u0 of a rigid Gaussian part, B_eta = -u0 B_xi, or None when
    the covariance has no such level (s11 in the dead band relative to the
    largest entry, or s22 off u0^2 s11)."""
    s11, s12 = sigma[0]
    s22 = sigma[1][1]
    scale = max(1.0, s11, s22, abs(s12))
    if abs(s11) <= BOUNDARY_TOL * scale:
        return None
    u0 = -s12 / s11
    if abs(s22 - u0 * u0 * s11) <= BOUNDARY_TOL * max(scale, u0 * u0 * s11):
        return u0
    return None


@dataclass(frozen=True)
class MarginalTriplet:
    """1-d triplet (gamma, sigma^2, jump measure) under interval truncation."""

    gamma: float
    sigma2: float
    jumps: object

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise InvalidModelError("marginal drift must be finite")
        if not (self.sigma2 >= 0.0 and math.isfinite(self.sigma2)):
            raise InvalidModelError("marginal variance must be finite and nonnegative")


# ---------------------------------------------------------------------------
# Truncation-convention corrections
# ---------------------------------------------------------------------------


def _correction_strips(axis: str) -> list[Strip]:
    """Strips for {|coordinate| < 1} minus the closed unit ball."""
    top, bottom = ChordEdge(1.0), ChordEdge(1.0, -1.0)
    if axis == "x":
        return [Strip(-1.0, 1.0, lower=(top,)), Strip(-1.0, 1.0, upper=(bottom,))]
    # |y| < 1 outside the ball: split x-ranges left/right of the ball plus
    # the caps above/below it.
    below, above = (ConstEdge(-1.0),), (ConstEdge(1.0),)
    return [
        Strip(NEG_INF, -1.0, below, above),
        Strip(1.0, INF, below, above),
        Strip(-1.0, 1.0, (top,), above),
        Strip(-1.0, 1.0, below, (bottom,)),
    ]


def _coordinate_correction(measure, axis: str) -> float:
    """Integral of the coordinate over {|coord| < 1, outside the unit ball}.

    This is the exact bridge between the pair-ball drift and the marginal
    interval drift.
    """
    atoms = measure.atoms_or_none()
    if atoms is not None:
        total = 0.0
        for a in atoms:
            coord = a.x if axis == "x" else a.y
            if _in_open_interval(coord) and not _in_open_ball(a.x, a.y):
                total += a.rate * coord
        return total
    return measure.integrate(X_COORD if axis == "x" else Y_COORD, _correction_strips(axis))


def _marginal(t: LevyTriplet2D, axis: str) -> MarginalTriplet:
    gamma_tilde = t.gamma_tilde[0] if axis == "x" else t.gamma_tilde[1]
    sigma2 = t.sigma_xi2 if axis == "x" else t.sigma_eta2
    gamma = gamma_tilde + _coordinate_correction(t.jumps, axis)
    jumps = t.jumps.xi_margin() if axis == "x" else t.jumps.eta_margin()
    return MarginalTriplet(gamma, sigma2, jumps)


def marginal_xi(t: LevyTriplet2D) -> MarginalTriplet:
    """1-d triplet of the first component."""
    return _marginal(t, "x")


def marginal_eta(t: LevyTriplet2D) -> MarginalTriplet:
    """1-d triplet of the second component."""
    return _marginal(t, "y")


# ---------------------------------------------------------------------------
# The W transform: exp(-xi) as a stochastic exponential
# ---------------------------------------------------------------------------


def w_transform(t: LevyTriplet2D) -> LevyTriplet2D:
    """Triplet of the pair (xi, W) where exp(-xi) is the stochastic
    exponential of W.  Atom tier only.

    The Brownian part of W is -B_xi, each xi-jump x becomes the W-jump
    exp(-x) - 1, and the W drift is pinned by
    ``gamma_xi + gamma_W = sigma_xi^2 / 2 + integral of (x + e^-x - 1)``
    over the small-jump region of the (xi, W) plane.  This pair-plane
    construction is the reference for ``w_drift``.
    """
    pair_jumps = FiniteAtomSet(
        [JumpAtom(a.x, w_jump(a.x), a.rate) for a in t.atoms() if a.x != 0.0]
    )
    m_xi = marginal_xi(t)
    sigma2 = t.sigma_xi2

    # Ball-convention drift of xi inside the (xi, W) plane.
    gx_pair = m_xi.gamma - _coordinate_correction(pair_jumps, "x")
    ball_term = sum(
        a.rate * (a.x + a.y) for a in pair_jumps.atoms if _in_open_ball(a.x, a.y)
    )

    gw_pair = 0.5 * sigma2 - gx_pair + ball_term
    sigma_pair = ((sigma2, -sigma2), (-sigma2, sigma2))
    return LevyTriplet2D((gx_pair, gw_pair), sigma_pair, pair_jumps)


def w_drift(t: LevyTriplet2D) -> float:
    """Interval-truncation drift of W, from the xi marginal alone:
    ``sigma_xi^2 / 2 - gamma_xi`` plus the integral of
    ``x 1{|x| < 1} + (e^-x - 1) 1{|e^-x - 1| < 1}`` against the xi jump
    measure.  The unit ball of the (xi, W) plane lies inside both
    ``{|x| < 1}`` and ``{|w| < 1}``, so this equals the W marginal drift
    of ``w_transform``.
    """
    m = marginal_xi(t)
    base = 0.5 * m.sigma2 - m.gamma
    pairs = m.jumps.atoms_or_none()
    if pairs is not None:
        total = 0.0
        for x, rate in pairs:
            w = w_jump(x)
            term = 0.0
            if _in_open_interval(x):
                term += x
            if _in_open_interval(w):
                term += w
            total += rate * term
        return base + total

    # |e^-x - 1| < 1 iff x > -ln 2; on (-ln 2, 1) both indicators hold and
    # x + e^-x - 1 is nonnegative, so divergence detection applies.
    ln2 = math.log(2.0)
    small = m.jumps.integrate(lambda x: x + w_jump(x), -ln2, 1.0, nonneg=True)
    if small == INF:
        raise UndeterminedError("small-jump integral of the W drift diverged")
    left = m.jumps.integrate(lambda x: x, -1.0, -ln2)
    right = m.jumps.integrate(w_jump, 1.0, INF)
    return base + small + left + right


def s_gaussian_variance(sigma, u: float) -> float:
    """Gaussian variance of S(u) = eta - u W; shared by both subordinator
    test routes so their Gaussian verdicts agree exactly."""
    value = sigma[1][1] + u * u * sigma[0][0] + 2.0 * u * sigma[0][1]
    return max(0.0, value)


def s_process(t: LevyTriplet2D, u: float) -> MarginalTriplet:
    """1-d triplet of S(u) = eta - u W.

    Built the long way around, through the marginal drift of eta, W's drift
    from the xi marginal (``w_drift``) and the exact re-truncation
    correction, so it stays an independent check on the closed-form drift
    inequality used by the classifier.
    """
    m_eta = marginal_eta(t)
    gamma_w = w_drift(t)
    sigma2 = s_gaussian_variance(t.sigma, u)

    atoms = t.jumps.atoms_or_none()
    if atoms is not None:
        pairs = []
        corr = 0.0
        for a in atoms:
            w = w_jump(a.x)
            s = s_jump(a.x, a.y, u)
            if abs(s) > BOUNDARY_TOL:
                pairs.append((s, a.rate))
            term = 0.0
            if _in_open_interval(s):
                term += s
            if _in_open_interval(a.y):
                term -= a.y
            if _in_open_interval(w):
                term += u * w
            corr += a.rate * term
        jumps = Atoms1D(pairs)
    else:
        corr = _s_density_correction(t.jumps, u)
        jumps = Pushforward1D.s_jumps(t.jumps, u)

    gamma = m_eta.gamma - u * gamma_w + corr
    return MarginalTriplet(gamma, sigma2, jumps)


def _s_density_correction(measure, u: float) -> float:
    """Re-truncation correction for S(u) on the density tier.

    The integrand s 1{|s|<1} - y 1{|y|<1} + u w 1{|w|<1} vanishes on a
    neighbourhood of the origin, so each indicator region is integrated
    separately outside a ball on which all three indicators hold.
    """
    eps = 0.3 / (1.0 + math.e * max(1.0, abs(u)))

    y_strip = Strip(lower=(ConstEdge(-1.0),), upper=(ConstEdge(1.0),))
    w_strip = Strip(-math.log(2.0))  # |e^-x - 1| < 1  iff  x > -ln 2

    total = 0.0
    total += measure.integrate(s_coord(u), strips_outside_ball([s_band(u, -1.0, 1.0)], eps))
    total -= measure.integrate(Y_COORD, strips_outside_ball([y_strip], eps))
    total += u * measure.integrate(AffineY(w_jump), strips_outside_ball([w_strip], eps))
    return total


# ---------------------------------------------------------------------------
# Drift vector, subordinator drift, moments, scaling
# ---------------------------------------------------------------------------


def drift_vector(t: LevyTriplet2D) -> tuple[float, float]:
    """Finite-variation drift: ball drift minus the small-jump integral.

    Only defined when the Gaussian part vanishes and the small jumps have
    finite variation.
    """
    if not zero_gaussian(t):
        raise NotFiniteVariationError("drift vector requires a vanishing Gaussian part")
    if t.jumps.atoms_or_none() is not None:
        return _uncompensated_drift(t)
    ball = Strip(-1.0, 1.0, (ChordEdge(1.0, -1.0),), (ChordEdge(1.0),))
    upper = Strip(-1.0, 1.0, (ConstEdge(0.0),), (ChordEdge(1.0),))
    lower = Strip(-1.0, 1.0, (ChordEdge(1.0, -1.0),), (ConstEdge(0.0),))
    # The positive and negative parts of x over the ball and of y over its
    # halves, each affine in y; the variation |x| + |y| is finite exactly
    # when all four are.
    x_pos, x_neg, y_pos, y_neg = (
        t.jumps.integrate(fn, [strip], nonneg=True)
        for fn, strip in ((AffineY(lambda x: max(x, 0.0)), ball),
                          (AffineY(lambda x: max(-x, 0.0)), ball),
                          (Y_COORD, upper), (AffineY(c1=lambda x: -1.0), lower))
    )
    if INF in (x_pos, x_neg, y_pos, y_neg):
        raise NotFiniteVariationError("small jumps have infinite variation")
    return t.gamma_tilde[0] - (x_pos - x_neg), t.gamma_tilde[1] - (y_pos - y_neg)


def d_eta(m: MarginalTriplet) -> float:
    """Subordinator drift of a spectrally positive 1-d process.

    ``gamma`` minus the small positive-jump integral; -inf exactly when that
    integral diverges.  Raises NotApplicableError when negative jumps exist.
    """
    if m.jumps.mass(NEG_INF, 0.0) > 0.0:
        raise NotApplicableError("subordinator drift undefined with negative jumps")
    small = m.jumps.integrate(v_itself, 0.0, 1.0, nonneg=True)
    if small == INF:
        return NEG_INF
    return m.gamma - small


def mean_at_one(t: LevyTriplet2D) -> tuple[float, float]:
    """Mean of the pair at time one: ball drift plus the big-jump integral."""
    atoms = t.jumps.atoms_or_none()
    if atoms is not None:
        ex, ey = t.gamma_tilde
        for a in atoms:
            if not _in_open_ball(a.x, a.y):
                ex += a.rate * a.x
                ey += a.rate * a.y
        return ex, ey

    # |x| >= 1, then |x| < 1 outside the ball
    tail = [Strip(x1=-1.0), Strip(1.0)] + _correction_strips("x")
    ex = t.gamma_tilde[0] + t.jumps.integrate(X_COORD, tail)
    ey = t.gamma_tilde[1] + t.jumps.integrate(Y_COORD, tail)
    return ex, ey


def scale_eta(t: LevyTriplet2D, k: float) -> LevyTriplet2D:
    """Triplet of (xi, k eta) for k > 0, with ball-truncation drift rebuilt
    exactly for the rescaled jump geometry."""
    if not (k > 0.0 and math.isfinite(k)):
        raise InvalidModelError("scale factor must be positive finite")
    sigma = (
        (t.sigma_xi2, k * t.brownian_cov),
        (k * t.brownian_cov, k * k * t.sigma_eta2),
    )
    atoms = t.jumps.atoms_or_none()
    if atoms is not None:
        gx, gy = t.gamma_tilde[0], k * t.gamma_tilde[1]
        new_atoms = []
        for a in atoms:
            scaled = JumpAtom(a.x, k * a.y, a.rate)
            new_atoms.append(scaled)
            old_in = _in_open_ball(a.x, a.y)
            new_in = _in_open_ball(scaled.x, scaled.y)
            if new_in and not old_in:
                gx += a.rate * a.x
                gy += a.rate * scaled.y
            elif old_in and not new_in:
                gx -= a.rate * a.x
                gy -= a.rate * scaled.y
        return LevyTriplet2D((gx, gy), sigma, FiniteAtomSet(new_atoms))

    if isinstance(t.jumps, LineDensity):
        if t.jumps.axis == "x":
            new_jumps = t.jumps
        else:
            base = t.jumps
            new_jumps = LineDensity(
                "y",
                lambda v, _f=base.fn, _k=k: _f(v / _k) / _k,
                k * base.lo,
                k * base.hi,
                base.tol,
            )
    elif isinstance(t.jumps, BoxDensity):  # a named family stays named
        base = t.jumps
        x0, x1, y0, y1 = base.box
        p = _DENSITY_FAMILIES[base.kind].scaled(base.params, k)
        new_jumps = density_from_json(
            {"kind": base.kind, "params": p, "box": (x0, x1, k * y0, k * y1), "tol": base.tol}
        )
    else:
        raise NotSupportedError("cannot scale this measure type")

    # Drift adjustment over the symmetric difference of the old and new
    # small-jump regions, in the original coordinates: the unit ball versus
    # the ellipse x^2 + (k y)^2 < 1, a pair of bands with exact y-bounds,
    # bounded away from the origin.
    if k == 1.0:
        return LevyTriplet2D(t.gamma_tilde, sigma, new_jumps)

    # Between the chords h(x) and h(x)/k of the unit disk, h = sqrt(1 - x^2):
    # min(h, h/k) = h/max(1, k) and max(h, h/k) = h/min(1, k).
    near, far = max(1.0, k), min(1.0, k)
    bands = [
        Strip(-1.0, 1.0, (ChordEdge(1.0, d=near),), (ChordEdge(1.0, d=far),)),
        Strip(-1.0, 1.0, (ChordEdge(1.0, -1.0, far),), (ChordEdge(1.0, -1.0, near),)),
    ]
    # new region minus old region is +bands for k < 1, -bands for k > 1
    sign = 1.0 if k < 1.0 else -1.0
    gx = t.gamma_tilde[0] + sign * t.jumps.integrate(X_COORD, bands)
    gy = k * (t.gamma_tilde[1] + sign * t.jumps.integrate(Y_COORD, bands))
    return LevyTriplet2D((gx, gy), sigma, new_jumps)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _exp_log_sup(rate: float, lo: float, hi: float) -> float:
    """max of -rate |v| over v in [lo, hi]: at an end, or at the point
    nearest 0."""
    return max(-rate * abs(v) for v in (lo, hi, min(max(0.0, lo), hi)))


def _uniform_moments(p):
    c = p["c"]

    def moments(x, lo, hi):
        return c * (hi - lo), 0.5 * c * (hi - lo) * (hi + lo)

    return moments


def _exp_segment(b: float, p: float, q: float) -> tuple[float, float]:
    """The integrals of e^{-b v} and v e^{-b v} over [p, q], 0 <= p <= q:
    e^{-b p} (E1, p E1 + E2), with E1 and E2 those of e^{-b s} and
    s e^{-b s} over [0, h], h = q - p.  Written with expm1, E2 loses about
    2 eps / |b h| of its relative accuracy to cancellation, so where
    |b h| < 0.01 both are summed as power series instead: b = 0 and a tiny
    b need no division by b, and a negative b is no special case."""
    h = q - p
    if h <= 0.0:
        return 0.0, 0.0
    x = b * h
    if abs(x) < 0.01:
        e1 = e2 = 0.0
        term = 1.0  # (-x)^k / k!; from the ninth on, below 1e-20
        for k in range(8):
            e1 += term / (k + 1)
            e2 += term / (k + 2)
            term *= -x / (k + 1)
        e1 *= h
        e2 *= h * h
    else:
        e1 = -math.expm1(-x) / b
        e2 = (-math.expm1(-x) - x * math.exp(-x)) / (b * b)
    scale = math.exp(-b * p)
    return scale * e1, scale * (p * e1 + e2)


def _exp_tails_moments(p):
    c, a, b = p["c"], p["a"], p["b"]

    def moments(x, lo, hi):
        # e^{-b |y|} split at 0; y = -v below it
        pos0, pos1 = _exp_segment(b, max(lo, 0.0), max(hi, 0.0))
        neg0, neg1 = _exp_segment(b, max(-hi, 0.0), max(-lo, 0.0))
        f = c * math.exp(-a * abs(x))
        return f * (pos0 + neg0), f * (pos1 - neg1)

    return moments


class _Family(NamedTuple):
    """A named density family c f(x) g(y): its parameter names, and
    functions of its parsed parameters p."""

    names: tuple[str, ...]
    density: Callable  # p -> density(x, y)
    log_sup: Callable  # (p, box) -> log of the sup over the box, without c
    scaled: Callable  # (p, k) -> the parameters of the density of (x, k y)
    y_moments: Callable  # p -> (x, lo, hi) -> c f(x) (int g, int y g) over [lo, hi]


_DENSITY_FAMILIES: dict[str, _Family] = {
    "uniform_box": _Family(
        ("c",),
        lambda p: (lambda x, y, c=p["c"]: c),
        lambda p, box: 0.0,
        lambda p, k: {"c": p["c"] / k},
        _uniform_moments,
    ),
    "exp_tails": _Family(
        ("c", "a", "b"),
        lambda p: (
            lambda x, y, c=p["c"], a=p["a"], b=p["b"]: c * math.exp(-a * abs(x) - b * abs(y))
        ),
        lambda p, box: _exp_log_sup(p["a"], *box[:2]) + _exp_log_sup(p["b"], *box[2:]),
        lambda p, k: {"c": p["c"] / k, "a": p["a"], "b": p["b"] / k},
        _exp_tails_moments,
    ),
}


def density_from_json(doc: dict) -> BoxDensity:
    """A named density family on its box.  Every parameter must be a finite
    number, c > 0 (so the density is positive on the whole closed box) and
    the density's sup times the box area finite.  That bound makes the
    measure finite, so the Levy condition, a finite integral of
    min(|z|^2, 1), holds with no quadrature.  The parsed parameters are
    kept, so the density serializes as the package's schema writes it."""
    if not isinstance(doc, dict):
        raise InvalidModelError(f"jumps.density must be an object, got {doc!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _DENSITY_FAMILIES:
        raise InvalidModelError(
            f"unknown density family {kind!r}; available: {sorted(_DENSITY_FAMILIES)}"
        )
    family = _DENSITY_FAMILIES[kind]
    names = family.names
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise InvalidModelError(f"{kind} density params must be an object")
    for name in params:
        if name not in names:
            raise InvalidModelError(
                f"{kind} density has no parameter {name!r}; its parameters: {list(names)}")
    p = {}
    for name in names:
        if name not in params:
            raise InvalidModelError(f"{kind} density requires parameter {name!r}")
        try:
            p[name] = float(params[name])
        except (TypeError, ValueError):
            raise InvalidModelError(f"{kind} parameter {name!r} must be a number") from None
        if not math.isfinite(p[name]):
            raise InvalidModelError(f"{kind} parameter {name!r} must be finite, got {p[name]}")
    if not p["c"] > 0.0:
        raise InvalidModelError(f"{kind} parameter 'c' must be positive, got {p['c']}")
    try:
        x0, x1, y0, y1 = box = tuple(float(v) for v in doc["box"])
        tol = float(doc.get("tol", 1e-9))
    except (KeyError, TypeError, ValueError):
        raise InvalidModelError(
            "density spec requires box [x0, x1, y0, y1] and an optional tol, all numbers"
        ) from None
    dens = BoxDensity(kind, p, box, tol)
    log_bound = (math.log(p["c"]) + family.log_sup(p, dens.box)
                 + math.log(x1 - x0) + math.log(y1 - y0))
    if not log_bound < math.log(sys.float_info.max):
        shown = ", ".join(f"{k} = {v!r}" for k, v in p.items())
        raise InvalidModelError(f"{kind} density sup times box area overflows ({shown})")
    return dens


def measure_to_json(measure) -> dict:
    atoms = measure.atoms_or_none()
    if atoms is not None:
        return {"atoms": [{"x": a.x, "y": a.y, "rate": a.rate} for a in atoms]}
    if isinstance(measure, BoxDensity):
        return {
            "density": {
                "kind": measure.kind,
                "params": measure.params,
                "box": list(measure.box),
                "tol": measure.tol,
            }
        }
    raise NotSupportedError("only atom sets and named density families serialize")


def measure_from_json(doc: dict):
    if not isinstance(doc, dict):
        raise InvalidModelError(f"jumps must be an object, got {doc!r}")
    if "atoms" in doc:
        try:
            return FiniteAtomSet(
                [JumpAtom(float(a["x"]), float(a["y"]), float(a["rate"])) for a in doc["atoms"]]
            )
        except (KeyError, TypeError, ValueError):
            raise InvalidModelError(
                "jumps.atoms must be a list of objects with numeric x, y and rate"
            ) from None
    if "density" in doc:
        return density_from_json(doc["density"])
    raise InvalidModelError("jumps must contain 'atoms' or 'density'")


def triplet_to_json(t: LevyTriplet2D) -> dict:
    s = t.sigma
    return {
        "gamma_tilde": [t.gamma_tilde[0], t.gamma_tilde[1]],
        "sigma": [[s[0][0], s[0][1]], [s[1][0], s[1][1]]],
        "jumps": measure_to_json(t.jumps),
    }


def triplet_from_json(doc: dict) -> LevyTriplet2D:
    try:
        gamma, sigma = doc["gamma_tilde"], doc["sigma"]
    except KeyError as exc:
        raise InvalidModelError(f"missing triplet field: {exc}") from exc
    except TypeError:
        raise InvalidModelError(f"a triplet spec must be an object, got {doc!r}") from None
    return LevyTriplet2D(gamma, sigma, measure_from_json(doc.get("jumps", {"atoms": []})))
