"""Quadrant regions, critical thresholds, and the drift inequality.

The no-ruin analysis revolves around which pair jumps (x, y) turn the test
process S(u) = eta - u W downward.  A jump moves S by ``y - u (e^-x - 1)``;
the moving regions

    A_i^u = { (x, y) in quadrant A_i : y - u (e^-x - 1) < 0 }

gain or lose jump mass as u varies, and the four critical values theta_1..4
mark where each branch empties out.  On the atom tier every threshold is the
exact extremum of per-atom critical values ``y / (e^-x - 1)``.  A named
density family (``uniform_box``, ``exp_tails``) is positive on its whole
closed box, and the critical value is monotone in x and in y on each
quadrant, so each threshold is the critical value at a corner of the box
part in that quadrant, exactly.  A measure on an axis segment takes the
thresholds of one atom on each side of the origin that carries mass.  So no
threshold is searched for: the region masses only decide which branches are
empty.

The drift inequality's left-hand side

    L(u) = gamma_eta + u gamma_xi - u sigma_xi^2 / 2
           - integral over {y - u(e^-x - 1) >= 0, x^2 + y^2 < 1} of (u x + y)

equals the subordinator drift of S(u) whenever S(u) has no negative jumps.
The region here is taken closed in the jump direction: at the finitely many
u where an atom sits exactly on the boundary, the closed version is the one
that agrees with the drift of S(u) computed from its own triplet (a jump of
size zero is no jump, but its compensator share still moves the drift).
At every other u the open and closed versions coincide.

On the density tier the integrand u x + y is split at the line y = -u x
into its positive and negative parts, each affine in y on its side, so both
take the closed inner integral of ``quadrature.integrate_strips``.

For atom measures L is piecewise affine in u with breakpoints at the
critical values of unit-disk atoms; the exact piecewise form drives the
feasibility intervals of the classifier.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import NotSupportedError, UndeterminedError
from .intervals import Interval, IntervalSet
from .model import (
    BoxDensity,
    JumpAtom,
    LevyTriplet2D,
    LineDensity,
    UNIT,
    _in_open_ball,
    s_jump,
    w_jump,
)
from .numerics import BOUNDARY_TOL, INF, NEG_INF, ext_to_json, sgn
from .quadrature import AffineY, BandEdge, ChordEdge, ConstEdge, LineEdge, Strip


@dataclass(frozen=True)
class ThetaBounds:
    """The four critical u values; theta1, theta3 <= 0 <= theta2, theta4."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float

    def to_json(self) -> dict:
        return {
            "theta1": ext_to_json(self.theta1),
            "theta2": ext_to_json(self.theta2),
            "theta3": ext_to_json(self.theta3),
            "theta4": ext_to_json(self.theta4),
        }


def _quadrant_signs(i: int) -> tuple[int, int]:
    # Sign pattern (x, y) of each closed quadrant.
    return {1: (1, 1), 2: (1, -1), 3: (-1, -1), 4: (-1, 1)}[i]


def _atom_in_quadrant(a, i: int) -> bool:
    sx, sy = _quadrant_signs(i)
    gx, gy = sgn(a.x), sgn(a.y)
    return (gx == 0 or gx == sx) and (gy == 0 or gy == sy)


def _quadrant_strips(i: int, u: float | None) -> list[Strip]:
    """Strips for A_i, optionally intersected with {y < u (e^-x - 1)}."""
    cap = () if u is None else (BandEdge(u, 0.0),)
    sx, sy = _quadrant_signs(i)
    x0, x1 = (0.0, INF) if sx > 0 else (NEG_INF, 0.0)
    if sy > 0:
        return [Strip(x0, x1, (ConstEdge(0.0),), cap)]
    return [Strip(x0, x1, (), cap + (ConstEdge(0.0),))]


def quadrant_mass(m, i: int) -> float:
    """Total jump mass of the closed quadrant A_i (may be inf)."""
    atoms = m.atoms_or_none()
    if atoms is not None:
        return sum(a.rate for a in atoms if _atom_in_quadrant(a, i))
    return m.integrate(UNIT, _quadrant_strips(i, None), nonneg=True)


def region_mass(m, i: int, u: float) -> float:
    """Mass of the moving region A_i^u (may be inf)."""
    atoms = m.atoms_or_none()
    if atoms is not None:
        return sum(
            a.rate
            for a in atoms
            if _atom_in_quadrant(a, i) and sgn(s_jump(a.x, a.y, u)) < 0
        )
    return m.integrate(UNIT, _quadrant_strips(i, u), nonneg=True)


def _atom_critical(a) -> float:
    """Critical u of one atom: its jump of S(u) vanishes at u = y / w(x)."""
    return a.y / w_jump(a.x)


def _atom_thetas(atoms) -> ThetaBounds:
    t1, t2, t3, t4 = NEG_INF, 0.0, 0.0, INF
    for a in atoms:
        gx, gy = sgn(a.x), sgn(a.y)
        if _atom_in_quadrant(a, 2):
            if gx == 0:
                c = INF if gy < 0 else 0.0
            else:
                c = _atom_critical(a)
            t2 = max(t2, c)
        if _atom_in_quadrant(a, 4):
            c = INF if gx == 0 else _atom_critical(a)
            t4 = min(t4, c)
        if _atom_in_quadrant(a, 1):
            c = NEG_INF if gx == 0 else _atom_critical(a)
            t1 = max(t1, c)
        if _atom_in_quadrant(a, 3):
            if gx == 0:
                c = NEG_INF if gy < 0 else 0.0
            else:
                c = _atom_critical(a)
            t3 = min(t3, c)
    return ThetaBounds(t1, t2, t3, t4)


def family_box(m) -> tuple[float, float, float, float] | None:
    """The box of a named-family density, which is positive on the whole
    closed box (``density_from_json`` requires c > 0), else None."""
    return m.box if isinstance(m, BoxDensity) else None


def _box_thetas(box) -> ThetaBounds:
    """Thresholds of a density positive on its whole closed box.

    Branch i is empty (its value at no atoms) when the box part in the
    closed quadrant A_i has zero area.  Otherwise it is branch i of the
    atom-tier thresholds of one atom at the part's extreme corner: y / w(x)
    is monotone in x and in y on each quadrant, so the corner is at the
    part's lowest y, and at its largest x on A_1 and A_3, its smallest on
    A_2 and A_4.  The atom tier's conventions then cover a corner on an
    axis.
    """
    x0, x1, y0, y1 = box
    empty = _atom_thetas(())
    values = []
    for i in (1, 2, 3, 4):
        sx, sy = _quadrant_signs(i)
        xs = (max(x0, 0.0), x1) if sx > 0 else (x0, min(x1, 0.0))
        ys = (max(y0, 0.0), y1) if sy > 0 else (y0, min(y1, 0.0))
        th = empty
        if xs[0] < xs[1] and ys[0] < ys[1]:
            corner = JumpAtom(xs[1] if i in (1, 3) else xs[0], ys[0], 1.0)
            th = _atom_thetas((corner,))
        values.append(getattr(th, f"theta{i}"))
    return ThetaBounds(*values)


def _axis_thetas(m: LineDensity) -> ThetaBounds:
    """Thresholds of a measure on an axis segment.  Every jump on an axis
    has the same atom-tier conventions as any other on its side of the
    origin (critical level 0 on the x axis, the x = 0 rules on the y axis),
    so branch i is branch i of the atom-tier thresholds of one atom on the
    side in A_i, (sx, 0) on the x axis and (0, sy) on the y axis, or empty
    when that side holds no mass."""
    values = []
    for i in (1, 2, 3, 4):
        atoms = ()
        if quadrant_mass(m, i) > mass_tol(m):
            sx, sy = _quadrant_signs(i)
            atoms = (JumpAtom(*m._point(float(sx if m.axis == "x" else sy)), 1.0),)
        values.append(getattr(_atom_thetas(atoms), f"theta{i}"))
    return ThetaBounds(*values)


def mass_tol(m) -> float:
    """Density-tier mass at or below which a region counts as empty."""
    return 16.0 * getattr(m, "tol", 1e-9)


def thetas(m) -> ThetaBounds:
    """Critical thresholds of the four moving regions, exact on the atom
    tier, for a named density family and on an axis segment."""
    atoms = m.atoms_or_none()
    if atoms is not None:
        return _atom_thetas(atoms)
    box = family_box(m)
    if box is not None:
        return _box_thetas(box)
    if isinstance(m, LineDensity):
        return _axis_thetas(m)
    raise NotSupportedError("thresholds need atoms, a named density family or an axis segment")


# ---------------------------------------------------------------------------
# Drift inequality
# ---------------------------------------------------------------------------


def _disk_region_strips(u: float, side: float) -> list[Strip]:
    """Strips for {y - u(e^-x - 1) >= 0} inside the open unit disk, on the
    side of the line y = -u x where side (u x + y) >= 0."""
    lower, upper = (BandEdge(u, 0.0), ChordEdge(1.0, -1.0)), (ChordEdge(1.0),)
    if side > 0:
        return [Strip(-1.0, 1.0, lower + (LineEdge(-u),), upper)]
    return [Strip(-1.0, 1.0, lower, upper + (LineEdge(-u),))]


def drift_lhs(t: LevyTriplet2D, u: float) -> float:
    """Left-hand side of the drift inequality at u; may be -inf."""
    base = t.gamma_tilde[1] + u * t.gamma_tilde[0] - 0.5 * u * t.sigma_xi2
    atoms = t.jumps.atoms_or_none()
    if atoms is not None:
        term = 0.0
        for a in atoms:
            if _in_open_ball(a.x, a.y) and sgn(s_jump(a.x, a.y, u)) >= 0:
                term += a.rate * (u * a.x + a.y)
        return base - term
    pos = t.jumps.integrate(
        AffineY(lambda x: u * x, lambda x: 1.0), _disk_region_strips(u, 1.0), nonneg=True
    )
    if pos == INF:
        return NEG_INF
    neg = t.jumps.integrate(
        AffineY(lambda x: -u * x, lambda x: -1.0), _disk_region_strips(u, -1.0), nonneg=True
    )
    if neg == INF:
        raise UndeterminedError(
            "negative part of the drift integral diverged; measure is not Levy"
        )
    return base - (pos - neg)


# ---------------------------------------------------------------------------
# Exact piecewise-affine form of the drift inequality (atom tier)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise-affine function of u with explicit values at breakpoints.

    ``pieces[k]`` is the (slope, intercept) pair on the open interval between
    ``breakpoints[k-1]`` and ``breakpoints[k]``; the function may jump at a
    breakpoint, where ``at_points[k]`` is the exact value.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]
    at_points: tuple[float, ...]

    def __call__(self, u: float) -> float:
        for bp, val in zip(self.breakpoints, self.at_points):
            if abs(u - bp) <= BOUNDARY_TOL:
                return val
        k = bisect_right(self.breakpoints, u)
        slope, intercept = self.pieces[k]
        return slope * u + intercept

    def nonneg_set(self) -> IntervalSet:
        """The set {u : f(u) >= 0}, with boundary dead band.

        Roots are exact up to rounding; solution intervals are widened
        outward by a relative 1e-13 so that coincident boundaries computed
        through different float paths still intersect.
        """
        cuts = (NEG_INF,) + self.breakpoints + (INF,)
        parts = []
        for k, (slope, intercept) in enumerate(self.pieces):
            lo, hi = cuts[k], cuts[k + 1]
            piece = Interval(lo, hi, lo_open=True, hi_open=True)
            if abs(slope) <= 1e-300:
                if intercept >= -BOUNDARY_TOL:
                    parts.append(piece)
                continue
            root = -intercept / slope
            pad = 1e-13 * max(1.0, abs(root))
            if slope > 0:
                sol = Interval(root - pad, INF, lo_open=False, hi_open=True)
            else:
                sol = Interval(NEG_INF, root + pad, lo_open=True, hi_open=False)
            parts.append(piece.intersect(sol))
        for bp, val in zip(self.breakpoints, self.at_points):
            if val >= -BOUNDARY_TOL:
                parts.append(Interval(bp, bp))
        return IntervalSet(parts)

    def to_json(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "pieces": [{"slope": s, "intercept": c} for s, c in self.pieces],
            "at_points": [ext_to_json(v) for v in self.at_points],
        }


class _LevelSums:
    """(critical level, atom) pairs of the disk atoms of one sign of x, sorted
    by level, with running sums of rate * x and rate * y: ``sx[i]`` sums the
    first i atoms, or with ``from_top`` the atoms from i on."""

    def __init__(self, pairs, from_top: bool):
        pairs = sorted(pairs, key=lambda p: p[0])
        self.levels = [c for c, _ in pairs]
        self.atoms = [a for _, a in pairs]
        seq = self.atoms[::-1] if from_top else self.atoms
        self.sx = list(accumulate((a.rate * a.x for a in seq), initial=0.0))
        self.sy = list(accumulate((a.rate * a.y for a in seq), initial=0.0))
        if from_top:
            self.sx.reverse()
            self.sy.reverse()
        # |s_jump(u)| is |w(x)| |c - u| up to the rounding of c and of
        # s_jump, so no jump within 2 BOUNDARY_TOL / min |w| of u, plus a
        # relative 1e-14 |u|, can fall in the dead band.
        self.radius = 2.0 * BOUNDARY_TOL / min(
            (abs(w_jump(a.x)) for a in self.atoms), default=1.0
        )

    def dead_band(self, u: float) -> tuple[int, int]:
        """Index range [lo, hi) of the atoms whose S(u) jump may fall in the
        dead band; every other atom's jump w(x) (c - u) is clear of it."""
        h = self.radius + 1e-14 * abs(u)
        return bisect_left(self.levels, u - h), bisect_right(self.levels, u + h)


def drift_lhs_piecewise(t: LevyTriplet2D) -> PiecewiseLinearFn:
    """Exact u-parametric form of the drift inequality for atom measures.

    One sweep over the disk atoms sorted by critical level c = y / w(x): the
    S(u) jump of an x > 0 atom is positive exactly for u > c, that of an
    x < 0 atom for u < c, and that of an x = 0 atom for every u when y > 0.
    So the piece on the open interval (bp[k-1], bp[k]) counts the x > 0
    atoms with c <= bp[k-1], a prefix, and the x < 0 atoms with c >= bp[k],
    a suffix, and both come from running sums.  At a breakpoint the atoms
    count as ``drift_lhs`` counts them (sgn(s_jump) >= 0): the same sums
    cover those whose jump is clear of the dead band, and the few inside it
    are tested directly.
    """
    atoms = t.jumps.atoms_or_none()
    if atoms is None:
        raise NotSupportedError("piecewise drift form requires the atom tier")
    disk = [a for a in atoms if _in_open_ball(a.x, a.y)]
    crit = [(_atom_critical(a), a) for a in disk if a.x != 0.0]
    bps = sorted({c for c, _ in crit})
    up = _LevelSums([p for p in crit if p[1].x > 0.0], from_top=False)
    dn = _LevelSums([p for p in crit if p[1].x < 0.0], from_top=True)
    flat = [a for a in disk if a.x == 0.0]

    base_slope = t.gamma_tilde[0] - 0.5 * t.sigma_xi2
    base_intercept = t.gamma_tilde[1] - sum(a.rate * a.y for a in flat if a.y > 0.0)
    cuts = [NEG_INF] + bps + [INF]
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        i = bisect_right(up.levels, lo)
        j = bisect_left(dn.levels, hi)
        pieces.append(
            (base_slope - (up.sx[i] + dn.sx[j]), base_intercept - (up.sy[i] + dn.sy[j]))
        )

    flat_y = sum(a.rate * a.y for a in flat if sgn(a.y) >= 0)
    at_points = []
    for bp in bps:
        base = t.gamma_tilde[1] + bp * t.gamma_tilde[0] - 0.5 * bp * t.sigma_xi2
        i_lo, i_hi = up.dead_band(bp)
        j_lo, j_hi = dn.dead_band(bp)
        sx, sy = up.sx[i_lo] + dn.sx[j_hi], up.sy[i_lo] + dn.sy[j_hi] + flat_y
        for a in up.atoms[i_lo:i_hi] + dn.atoms[j_lo:j_hi]:
            if sgn(s_jump(a.x, a.y, bp)) >= 0:
                sx += a.rate * a.x
                sy += a.rate * a.y
        at_points.append(base - (bp * sx + sy))
    return PiecewiseLinearFn(tuple(bps), tuple(pieces), tuple(at_points))
