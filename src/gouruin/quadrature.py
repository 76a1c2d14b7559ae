"""Quadrature backend for density-tier Levy measures.

Every region integral the package needs decomposes into x-strips, i.e. sets
of the form ``{x0 <= x <= x1, ylo(x) <= y <= yhi(x)}``.  ``ylo`` is the
largest of a strip's lower edges and ``yhi`` the smallest of its upper
edges, and an edge is one of four curves, each with its crossings of a
horizontal line y = v in closed form:

* a constant ``y = c`` (no crossing),
* a line through the origin ``y = slope x``, crossing at ``x = v / slope``,
* an S(u) band edge ``y = u (e^-x - 1) + c``, monotone in x, crossing at
  ``x = -log1p((v - c) / u)``,
* a disk chord ``y = +-sqrt(max(0, r^2 - x^2)) / d``, crossing at
  ``x = +-sqrt(r^2 - (v d)^2)``.

So a measure on the x axis gets the segments of a strip exactly, by cutting
at the crossings with y = 0.

There is one route for a 2-d integral.  A named density family factors as
c f(x) g(y) and gives its y-moments c f(x) (int g, int y g) between any two
y values in closed form, and every integrand is affine in y,
``AffineY(c0, c1)`` for c0(x) + c1(x) y.  So the inner integral is closed,
and each strip piece costs one outer ``quad`` over x, split where the inner
range has a corner.  An integrand that is not affine in y is made affine by
cutting the region: the positive parts of u x + y in ``drift_lhs`` at the
line y = -u x, the |y| of ``drift_vector`` at y = 0.  A Python-function
density, integrated by nested quadrature, lives only in the tests, as the
independent oracle of this route.

A measure on an axis segment (``model.LineDensity``) may be infinite near
the origin, so its nonnegative integrals are evaluated as a limit over
shrinking exclusions of the origin, with a geometric-ratio divergence test:

* increments that die off geometrically are summed and bounded,
* increments that stay flat or grow signal a divergent integral,
* anything in between is refused (``UndeterminedError``), never guessed.

The divergence test cannot resolve exponents extremely close to the
critical one; those land in the refusal band (``UndeterminedError``) rather
than being guessed either way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import UndeterminedError
from .numerics import INF, NEG_INF

#: Values beyond this are reported as +inf by the refinement driver.
DIVERGENCE_CAP = 1e12

_RATIO_CONVERGED = 0.70
_RATIO_DIVERGENT = 0.999


def _scipy_integrate():
    """``scipy.integrate``, imported on the first quadrature call: only the
    density tier needs it."""
    from scipy import integrate

    return integrate


@dataclass(frozen=True)
class ConstEdge:
    """The line y = c."""

    c: float

    def at(self, x: float) -> float:
        return self.c

    def crossings(self, v: float) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class BandEdge:
    """The S(u) band edge y = u (e^-x - 1) + c: the pair jumps on it move
    S(u) by exactly -c."""

    u: float
    c: float

    def at(self, x: float) -> float:
        return self.u * math.expm1(-x) + self.c

    def crossings(self, v: float) -> tuple[float, ...]:
        r = (v - self.c) / self.u if self.u else -1.0  # u = 0: a flat edge
        return (-math.log1p(r),) if r > -1.0 else ()


@dataclass(frozen=True)
class ChordEdge:
    """The disk chord y = sign sqrt(max(0, r^2 - x^2)) / d: the upper (sign 1)
    or lower (sign -1) half circle of radius r over d, and 0 outside it."""

    r: float
    sign: float = 1.0
    d: float = 1.0

    def at(self, x: float) -> float:
        return self.sign * math.sqrt(max(0.0, self.r * self.r - x * x)) / self.d

    def crossings(self, v: float) -> tuple[float, ...]:
        h = self.sign * v * self.d
        if h < 0.0 or h > self.r:
            return ()
        half = math.sqrt(self.r * self.r - h * h)
        return (-half, half)


@dataclass(frozen=True)
class LineEdge:
    """The line y = slope x through the origin."""

    slope: float

    def at(self, x: float) -> float:
        return self.slope * x

    def crossings(self, v: float) -> tuple[float, ...]:
        return (v / self.slope,) if self.slope else ()

    def chord_crossings(self, chord: ChordEdge) -> tuple[float, float]:
        """Where the line meets the circle x^2 + (y d)^2 = r^2 of a chord,
        on either half."""
        half = chord.r / math.hypot(1.0, self.slope * chord.d)
        return (-half, half)


Edge = ConstEdge | LineEdge | BandEdge | ChordEdge


@dataclass(frozen=True)
class AffineY:
    """The integrand c0(x) + c1(x) y; a coefficient left None is 0.  It is
    callable as (x, y), so a measure on an axis evaluates it pointwise."""

    c0: Callable[[float], float] | None = None
    c1: Callable[[float], float] | None = None

    def __call__(self, x: float, y: float) -> float:
        return self.inner(x, (1.0, y))

    def inner(self, x: float, moments: tuple[float, float]) -> float:
        """The inner y-integral at x from the density's y-moments (M0, M1)
        there: c0(x) M0 + c1(x) M1."""
        m0, m1 = moments
        return (self.c0(x) * m0 if self.c0 else 0.0) + (self.c1(x) * m1 if self.c1 else 0.0)


@dataclass(frozen=True)
class Strip:
    """x-strip region: x in [x0, x1], y between the largest lower edge and
    the smallest upper edge; no lower (upper) edge leaves y unbounded below
    (above).  The defaults give the whole plane."""

    x0: float = NEG_INF
    x1: float = INF
    lower: tuple[Edge, ...] = ()
    upper: tuple[Edge, ...] = ()

    # ylo and yhi are max() and min() over the edges (the first extreme
    # value wins, as in the builtins), written as loops: they run at every
    # outer quadrature node, where a comprehension would double their cost.
    def ylo(self, x: float) -> float:
        if not self.lower:
            return NEG_INF
        v = self.lower[0].at(x)
        for e in self.lower[1:]:
            w = e.at(x)
            if w > v:
                v = w
        return v

    def yhi(self, x: float) -> float:
        if not self.upper:
            return INF
        v = self.upper[0].at(x)
        for e in self.upper[1:]:
            w = e.at(x)
            if w < v:
                v = w
        return v

    def meet(self, x0=NEG_INF, x1=INF, lower=(), upper=()) -> list[Strip]:
        """This strip with x limited to [x0, x1] and the given edges added,
        as a list of one strip, or [] when that x-range is empty."""
        x0, x1 = max(self.x0, x0), min(self.x1, x1)
        return [Strip(x0, x1, self.lower + lower, self.upper + upper)] if x1 > x0 else []

    def nonempty_pieces(self) -> list[Strip]:
        """This strip cut at every crossing of an edge with a constant edge
        on the other side, less the pieces where such a pair leaves no room.
        Neither edge of such a pair crosses the other inside a piece, so a
        pair with lower >= upper at the midpoint does so on the whole piece;
        two curved edges may still cross inside a kept piece."""
        if not math.isfinite(self.x1 - self.x0):
            return [self]
        pairs = [
            (lo, up) for lo in self.lower for up in self.upper
            if isinstance(lo, ConstEdge) or isinstance(up, ConstEdge)
        ]
        cuts = sorted({
            x
            for lo, up in pairs
            for x in (up.crossings(lo.c) if isinstance(lo, ConstEdge) else lo.crossings(up.c))
            if self.x0 < x < self.x1
        })
        pieces = []
        for p, q in zip([self.x0] + cuts, cuts + [self.x1]):
            m = 0.5 * (p + q)
            if all(lo.at(m) < up.at(m) for lo, up in pairs):
                pieces.append(Strip(p, q, self.lower, self.upper))
        return pieces

    def kinks(self) -> list[float]:
        """Points inside the x-range where the inner range may fail to be
        smooth: x = 0 (where a density may have a kink in |x|, and where a
        line meets a band edge of the same u), every crossing of an edge
        with y = 0 or with a constant edge of the strip (a chord meets
        y = 0 at its ends, where its slope is infinite), and every crossing
        of a line with a chord."""
        edges = self.lower + self.upper
        levels = {0.0} | {e.c for e in edges if isinstance(e, ConstEdge)}
        cuts = {0.0}.union(*(e.crossings(v) for e in edges for v in levels))
        cuts.update(
            x
            for line in edges if isinstance(line, LineEdge)
            for chord in edges if isinstance(chord, ChordEdge)
            for x in line.chord_crossings(chord)
        )
        return sorted(x for x in cuts if self.x0 < x < self.x1)

    def x_axis_segments(self, a: float, b: float) -> list[tuple[float, float]]:
        """The maximal subintervals of [a, b] on which (x, 0) lies in the
        strip, found by cutting [a, b] at every edge's crossings with y = 0
        and testing the midpoint of each piece (every edge keeps its sign
        inside a piece)."""
        a, b = max(a, self.x0), min(b, self.x1)
        if b <= a:
            return []
        cuts = sorted(
            {x for e in self.lower + self.upper for x in e.crossings(0.0) if a < x < b}
        )
        segs: list[tuple[float, float]] = []
        for p, q in zip([a] + cuts, cuts + [b]):
            m = 0.5 * (p + q)
            if self.ylo(m) <= 0.0 <= self.yhi(m):
                if segs and segs[-1][1] == p:
                    segs[-1] = (segs[-1][0], q)
                else:
                    segs.append((p, q))
        return segs


def quad_1d(fn, lo: float, hi: float, tol: float) -> float:
    if hi <= lo:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = _scipy_integrate().quad(fn, lo, hi, epsabs=tol, epsrel=1e-10, limit=200)
    if err > max(tol, 1e-13 * abs(val)):
        raise UndeterminedError("1-d quadrature tolerance not reached", residual=err)
    return val


def integrate_strips(y_moments, strips: Sequence[Strip], integrand: AffineY, tol: float) -> float:
    """Integrate an ``AffineY`` integrand against a density given by its
    closed ``y_moments(x, lo, hi)`` (its (M0, M1) on [lo, hi] at x) over
    the strips, each cut to the x-ranges where it is not empty: an outer
    quadrature over the whole range can miss a sliver on which the inner
    range is non-empty.

    A piece is one outer ``quad`` of the closed inner integral, split at
    the piece's ``kinks`` and asked for the terms of the final check, tol / n
    or 1e-12 relative.  The errors of the pieces are summed and checked
    together."""
    pieces = [p for s in strips for p in s.nonempty_pieces()]
    total = 0.0
    total_err = 0.0
    n = max(1, len(pieces))
    quad = _scipy_integrate().quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in pieces:

            def inner(x, _s=s):
                lo = _s.ylo(x)
                return integrand.inner(x, y_moments(x, lo, max(lo, _s.yhi(x))))

            val, err = quad(
                inner, s.x0, s.x1, epsabs=tol / n, epsrel=1e-12, limit=200,
                points=s.kinks() or None,
            )
            total += val
            total_err += err
    if total_err > max(tol, 1e-12 * abs(total)):
        raise UndeterminedError(
            "2-d quadrature tolerance not reached", residual=total_err
        )
    return total


def clip_strips_to_box(strips: Sequence[Strip], box) -> list[Strip]:
    """Intersect strips with a bounding box (x0, x1, y0, y1)."""
    bx0, bx1, by0, by1 = box
    return [c for s in strips for c in s.meet(bx0, bx1, (ConstEdge(by0),), (ConstEdge(by1),))]


def strips_outside_ball(strips: Sequence[Strip], eps: float) -> list[Strip]:
    """Region minus the open ball of radius eps at the origin."""
    out = []
    for s in strips:
        out += s.meet(x1=-eps) + s.meet(eps)  # the part with |x| >= eps is untouched
        out += s.meet(-eps, eps, upper=(ChordEdge(eps, -1.0),))
        out += s.meet(-eps, eps, lower=(ChordEdge(eps),))
    return out


def strips_in_annulus(strips: Sequence[Strip], e_in: float, e_out: float) -> list[Strip]:
    """Region intersected with {e_in <= |z| < e_out}: the band between the
    two upper chords, then its mirror image below the x axis."""
    out = []
    for s in strips:
        out += s.meet(-e_out, e_out, (ChordEdge(e_in),), (ChordEdge(e_out),))
        out += s.meet(-e_out, e_out, (ChordEdge(e_out, -1.0),), (ChordEdge(e_in, -1.0),))
    return out


def limit_toward_origin(
    outer_value: float,
    annulus_value: Callable[[float, float], float],
    tol: float,
    eps0: float = 0.5,
) -> float:
    """Sum a nonnegative integral toward the origin with divergence detection.

    ``outer_value`` is the integral over the region with the ball of radius
    ``eps0`` removed; ``annulus_value(e_in, e_out)`` integrates over the
    region intersected with the annulus.  Returns the limit, ``inf`` when the
    increments do not decay, and raises UndeterminedError when the decay is
    too slow to classify.
    """
    total = outer_value
    prev_incr = None
    ratios: list[float] = []
    small_streak = 0
    eps_out = eps0
    incr = 0.0
    for _ in range(16):
        eps_in = eps_out * 0.25
        incr = max(0.0, annulus_value(eps_in, eps_out))
        total += incr
        if total > DIVERGENCE_CAP:
            return INF
        if incr <= max(tol * 0.25, 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        if prev_incr is not None and prev_incr > 0.0:
            ratios.append(incr / prev_incr)
            if len(ratios) >= 3:
                recent = max(ratios[-3:])
                if recent < _RATIO_CONVERGED:
                    tail = incr * recent / (1.0 - recent)
                    if tail <= tol:
                        return total + tail
                elif recent >= _RATIO_DIVERGENT and len(ratios) >= 5:
                    return INF
        prev_incr = incr
        eps_out = eps_in
    raise UndeterminedError(
        "origin-refined quadrature did not settle", residual=incr
    )


def limit_toward_point_1d(fn, singular_at: float, far_end: float, tol: float) -> float:
    """1-d analogue of :func:`limit_toward_origin` for a nonnegative ``fn``.

    Integrates ``fn`` over the interval between ``singular_at`` (excluded,
    approached geometrically) and ``far_end``.
    """
    span = abs(far_end - singular_at)
    if span == 0.0:
        return 0.0
    eps0 = min(0.5, span * 0.5)
    direction = 1.0 if far_end > singular_at else -1.0

    def seg(a: float, b: float) -> float:
        lo = singular_at + direction * a
        hi = singular_at + direction * b
        if direction < 0:
            lo, hi = hi, lo
        return quad_1d(fn, lo, hi, tol * 0.25)

    return limit_toward_origin(seg(eps0, span), seg, tol, eps0=eps0)
