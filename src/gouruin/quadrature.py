"""Quadrature backend for density-tier Levy measures.

Every region integral the package needs decomposes into x-strips, i.e. sets
of the form ``{x0 <= x <= x1, ylo(x) <= y <= yhi(x)}``; those are integrated
with ``scipy.integrate.dblquad`` using exact inner bounds.  Levy measures may
be infinite near the origin, so mass-type integrals are evaluated as a limit
over shrinking origin exclusions with a geometric-ratio divergence test:

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

import numpy as np

from .errors import UndeterminedError
from .numerics import INF

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
class Strip:
    """x-strip region: x in [x0, x1], y in [ylo(x), yhi(x)] (clamped)."""

    x0: float
    x1: float
    ylo: Callable[[float], float]
    yhi: Callable[[float], float]


def half_chord(radius: float) -> Callable[[float], float]:
    """x -> sqrt(radius^2 - x^2), the half-height of the disk of the given
    radius at abscissa x (0 outside it)."""
    return lambda x: math.sqrt(max(0.0, radius * radius - x * x))


def quad_1d(fn, lo: float, hi: float, tol: float) -> float:
    if hi <= lo:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = _scipy_integrate().quad(fn, lo, hi, epsabs=tol, epsrel=1e-10, limit=200)
    if err > max(tol, 1e-13 * abs(val)):
        raise UndeterminedError("1-d quadrature tolerance not reached", residual=err)
    return val


def integrate_strips(density, strips: Sequence[Strip], integrand, tol: float) -> float:
    """Integrate ``integrand(x, y) * density(x, y)`` over the strips."""
    total = 0.0
    total_err = 0.0
    n = max(1, len(strips))
    dblquad = _scipy_integrate().dblquad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in strips:
            if s.x1 <= s.x0:
                continue
            lo_fn = s.ylo
            hi_fn = lambda x, _s=s: max(_s.ylo(x), _s.yhi(x))
            val, err = dblquad(
                lambda y, x: integrand(x, y) * density(x, y),
                s.x0,
                s.x1,
                lo_fn,
                hi_fn,
                epsabs=tol / n,
                epsrel=1e-9,
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
    out = []
    for s in strips:
        x0 = max(s.x0, bx0)
        x1 = min(s.x1, bx1)
        if x1 <= x0:
            continue
        out.append(
            Strip(
                x0,
                x1,
                lambda x, _s=s: max(_s.ylo(x), by0),
                lambda x, _s=s: min(_s.yhi(x), by1),
            )
        )
    return out


def strips_outside_ball(strips: Sequence[Strip], eps: float) -> list[Strip]:
    """Region minus the open ball of radius eps at the origin."""
    rad = half_chord(eps)
    out = []
    for s in strips:
        # Part of the strip with |x| >= eps is untouched.
        if s.x0 < -eps:
            out.append(Strip(s.x0, min(s.x1, -eps), s.ylo, s.yhi))
        if s.x1 > eps:
            out.append(Strip(max(s.x0, eps), s.x1, s.ylo, s.yhi))
        x0 = max(s.x0, -eps)
        x1 = min(s.x1, eps)
        if x1 <= x0:
            continue
        out.append(Strip(x0, x1, s.ylo, lambda x, _s=s: min(_s.yhi(x), -rad(x))))
        out.append(Strip(x0, x1, lambda x, _s=s: max(_s.ylo(x), rad(x)), s.yhi))
    return out


def strips_in_annulus(strips: Sequence[Strip], e_in: float, e_out: float) -> list[Strip]:
    """Region intersected with {e_in <= |z| < e_out}."""
    g_in, g_out = half_chord(e_in), half_chord(e_out)
    out = []
    for s in strips:
        x0 = max(s.x0, -e_out)
        x1 = min(s.x1, e_out)
        if x1 <= x0:
            continue
        # Upper band: y in [g_in, g_out); lower band mirrored.
        out.append(
            Strip(
                x0,
                x1,
                lambda x, _s=s: max(_s.ylo(x), g_in(x)),
                lambda x, _s=s: min(_s.yhi(x), g_out(x)),
            )
        )
        out.append(
            Strip(
                x0,
                x1,
                lambda x, _s=s: max(_s.ylo(x), -g_out(x)),
                lambda x, _s=s: min(_s.yhi(x), -g_in(x)),
            )
        )
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


def predicate_segments(pred, lo: float, hi: float) -> list[tuple[float, float]]:
    """Subintervals of [lo, hi] where a scalar predicate holds.

    Boundaries are located by bisection on a dense scan; adequate for the
    piecewise-smooth predicates used by line-supported measures.
    """
    xs = np.linspace(lo, hi, 2048)
    vals = np.array([bool(pred(x)) for x in xs])
    segs: list[tuple[float, float]] = []
    start = None
    for i, v in enumerate(vals):
        if v and start is None:
            start = xs[i] if i == 0 else _bisect_edge(pred, xs[i - 1], xs[i], True)
        elif not v and start is not None:
            segs.append((start, _bisect_edge(pred, xs[i - 1], xs[i], False)))
            start = None
    if start is not None:
        segs.append((start, hi))
    return segs


def _bisect_edge(pred, a: float, b: float, rising: bool) -> float:
    for _ in range(60):
        m = 0.5 * (a + b)
        if bool(pred(m)) == rising:
            b = m
        else:
            a = m
    return 0.5 * (a + b)
