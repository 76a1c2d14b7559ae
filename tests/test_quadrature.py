"""Strip edges: closed-form crossings and the exact x-axis segments; the
closed inner y-integral of the named families against nquad."""

import math

import numpy as np
import pytest
from scipy import integrate

from gouruin.errors import UndeterminedError
from gouruin.model import (
    UNIT, X_COORD, Y_COORD, BoxDensity, LevyTriplet2D, _correction_strips, _exp_segment,
    density_from_json, s_band, s_process, w_jump,
)
from gouruin.quadrature import (
    AffineY, BandEdge, ChordEdge, ConstEdge, Strip, clip_strips_to_box, integrate_strips,
    strips_in_annulus, strips_outside_ball,
)
from gouruin.regions import _quadrant_strips

EDGES = [
    ConstEdge(0.3),
    BandEdge(2.0, 0.5),
    BandEdge(-1.5, -0.2),
    BandEdge(0.0, 0.1),
    ChordEdge(0.8),
    ChordEdge(1.0, -1.0, 2.0),
]


class TestEdges:
    @pytest.mark.parametrize("edge", EDGES, ids=repr)
    @pytest.mark.parametrize("v", [-0.7, -0.1, 0.0, 0.3, 0.45, 1.2])
    def test_crossings_bound_the_pieces_of_constant_sign(self, edge, v):
        # The edge meets y = v at its crossings, and edge - v keeps one
        # sign (zeros aside) between two consecutive crossings.
        cuts = sorted(edge.crossings(v))
        for x in cuts:
            assert edge.at(x) == pytest.approx(v, abs=1e-12)
        grid = np.linspace(-3.0, 3.0, 6001)
        piece = np.searchsorted(cuts, grid)
        signs = np.sign([edge.at(x) - v for x in grid])
        for k in set(piece):
            assert len(set(signs[piece == k]) - {0.0}) <= 1


class TestStrip:
    def test_unbounded_edges(self):
        s = Strip()
        assert (s.x0, s.x1, s.ylo(0.0), s.yhi(0.0)) == (-math.inf, math.inf, -math.inf, math.inf)

    def test_disk_region_on_the_x_axis(self):
        # {y >= u (e^-x - 1)} inside the unit disk meets the x axis on [0, 1].
        s = Strip(-1.0, 1.0, (BandEdge(2.0, 0.0), ChordEdge(1.0, -1.0)), (ChordEdge(1.0),))
        assert s.x_axis_segments(-2.0, 2.0) == [(0.0, 1.0)]
        assert s.x_axis_segments(-2.0, -0.5) == []
        assert s.x_axis_segments(1.5, 2.0) == []  # outside the strip's x-range

    def test_adjacent_pieces_merge(self):
        # The chord cuts [-2, 2] at +-0.5, but the strip holds the x axis on
        # all of it: one segment.
        s = Strip(upper=(ChordEdge(0.5), ConstEdge(1.0)))
        assert s.x_axis_segments(-2.0, 2.0) == [(-2.0, 2.0)]

class TestNonemptyPieces:
    def test_band_against_a_box_edge(self):
        # y in [-2, u (e^-x - 1)] is non-empty only left of the crossing of
        # the band edge with y = -2; the other piece is dropped.
        u = 5.075
        s = Strip(0.5, 1.5, (ConstEdge(-2.0),), (BandEdge(u, 0.0), ConstEdge(-0.5)))
        (piece,) = s.nonempty_pieces()
        assert piece.x0 == 0.5
        assert piece.x1 == pytest.approx(-math.log1p(-2.0 / u), rel=1e-15)
        assert piece.lower == s.lower and piece.upper == s.upper

    def test_empty_and_whole_strips(self):
        assert Strip(0.0, 1.0, (ConstEdge(1.0),), (ConstEdge(0.5),)).nonempty_pieces() == []
        whole = Strip(-1.0, 1.0, (ConstEdge(-0.5),), (ChordEdge(1.0),))
        assert whole.nonempty_pieces() == [whole]
        unbounded = Strip(upper=(ConstEdge(1.0),))
        assert unbounded.nonempty_pieces() == [unbounded]

    def test_chord_against_a_box_edge(self):
        # The upper half disk above y = 0.6 spans |x| < 0.8.
        s = Strip(-1.0, 1.0, (ConstEdge(0.6),), (ChordEdge(1.0),))
        (piece,) = s.nonempty_pieces()
        assert (piece.x0, piece.x1) == pytest.approx((-0.8, 0.8), rel=1e-15)


# ---------------------------------------------------------------------------
# The closed inner y-integral of the named families against nquad
# ---------------------------------------------------------------------------


def nquad_reference(density, strips, integrand, tol):
    """The nquad route of ``integrate_strips`` without its tolerance check,
    and with breakpoints where the integrand has kinks: y = 0 inside the
    inner range (exp_tails), and the strip's ``kinks`` in the outer one.
    It returns the value and the summed error estimate.  Without them nquad
    can miss its own error: on one seeded exp_tails box it is 3.1e-9 off
    the closed route, and off a quadrature split at the kinks by as much,
    yet it estimates an error of 1e-9."""
    pieces = [p for s in strips for p in s.nonempty_pieces()]
    opts = {"epsabs": tol / max(1, len(pieces)), "epsrel": 1e-9}
    total = err = 0.0
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


# Every AffineY integrand of the package: masses, coordinates, the S(u)
# jump at several u, W's jump, the xi-margin lift of w_drift, and the
# positive and negative parts of x of drift_vector.
INTEGRANDS = [
    ("1", UNIT), ("x", X_COORD), ("y", Y_COORD),
    ("s(u=0.7)", AffineY(lambda x: -0.7 * w_jump(x), lambda x: 1.0)),
    ("s(u=-1.3)", AffineY(lambda x: 1.3 * w_jump(x), lambda x: 1.0)),
    ("w", AffineY(w_jump)), ("x+w", AffineY(lambda x: x + w_jump(x))),
    ("x+", AffineY(lambda x: max(x, 0.0))), ("x-", AffineY(lambda x: max(-x, 0.0))),
]

STRIP_KINDS = [
    ("correction x", lambda r: _correction_strips("x")),
    ("correction y", lambda r: _correction_strips("y")),
    ("s_band", lambda r: [s_band(r.choice([0.0, 0.4, -1.3, 4.0]), -1.0, 1.0)]),
    ("s_band below 0", lambda r: [s_band(r.choice([0.7, -2.0, 5.0]), -math.inf, 0.0)]),
    ("quadrant", lambda r: _quadrant_strips(int(r.integers(1, 5)), None)),
    ("quadrant with cap", lambda r: _quadrant_strips(int(r.integers(1, 5)), r.uniform(-3, 6))),
    ("annulus", lambda r: strips_in_annulus([Strip()], *sorted(r.uniform(0.05, 1.5, 2)))),
    ("outside ball", lambda r: strips_outside_ball(
        [s_band(r.uniform(-2, 4), -1.0, 1.0)], r.uniform(0.05, 0.6))),
]

SPECIAL_RATES = [0.0, 1e-8, -1e-8, -0.7, -1.5]


def random_box(r, i):
    """Boxes in [-2.5, 2.5]^2; every fourth straddles both axes and the
    unit circle."""
    if i % 4 == 0:
        return [r.uniform(-2.5, -0.2), r.uniform(1.05, 2.5), r.uniform(-2.5, -0.2),
                r.uniform(0.2, 2.5)]
    x0, x1 = sorted(r.uniform(-2.5, 2.5, 2))
    y0, y1 = sorted(r.uniform(-2.5, 2.5, 2))
    return [x0, x1 + 0.05, y0, y1 + 0.05]


def family_params(r, kind, i):
    if kind == "uniform_box":
        return {"c": r.uniform(0.2, 3.0)}
    a, b = r.uniform(-1.0, 2.0, 2)
    if i % 3 == 0:
        a = SPECIAL_RATES[(i // 3) % len(SPECIAL_RATES)]
    if i % 3 == 1:
        b = SPECIAL_RATES[(i // 3) % len(SPECIAL_RATES)]
    return {"c": r.uniform(0.2, 3.0), "a": float(a), "b": float(b)}


class TestClosedInnerIntegral:
    @pytest.mark.parametrize("kind", ["uniform_box", "exp_tails"])
    def test_equals_nquad_on_seeded_boxes(self, kind):
        # 120 boxes per family; box i takes strip kind i mod 8 and integrand
        # (i div 8) mod 9, so every pair of the two lists is run.
        r = np.random.default_rng(20241 if kind == "uniform_box" else 20242)
        for i in range(120):
            spec = {"kind": kind, "params": family_params(r, kind, i),
                    "box": [float(v) for v in random_box(r, i)]}
            dens = density_from_json(spec)
            strips = clip_strips_to_box(STRIP_KINDS[i % 8][1](r), dens.box)
            name, integrand = INTEGRANDS[(i // 8) % len(INTEGRANDS)]
            closed = integrate_strips(dens.fn, strips, integrand, dens.tol, dens.y_moments)
            ref, ref_err = nquad_reference(dens.fn, strips, integrand, dens.tol)
            assert abs(closed - ref) <= dens.tol + ref_err, (i, STRIP_KINDS[i % 8][0], name, spec)

    @pytest.mark.parametrize("b", [0.0, 1e-8, -1e-8, 1e-3, -1e-3, 0.0099, 0.0101, -0.8, 2.0])
    @pytest.mark.parametrize("p, q", [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0), (0.0, 2.5)])
    def test_exponential_moments(self, b, p, q):
        # both branches of _exp_segment, and their meeting at |b h| = 0.01,
        # against 1-d quadrature
        m0, m1 = _exp_segment(b, p, q)
        r0 = integrate.quad(lambda v: math.exp(-b * v), p, q, epsabs=0, epsrel=1e-13)[0]
        r1 = integrate.quad(lambda v: v * math.exp(-b * v), p, q, epsabs=0, epsrel=1e-13)[0]
        assert m0 == pytest.approx(r0, rel=1e-12, abs=1e-300)
        assert m1 == pytest.approx(r1, rel=1e-12, abs=1e-300)

    def test_s_process_of_a_named_family_runs_no_nquad(self, monkeypatch):
        calls = []
        nquad = integrate.nquad

        def counted(*args, **kwargs):
            calls.append(args)
            return nquad(*args, **kwargs)

        monkeypatch.setattr(integrate, "nquad", counted)
        sigma = ((0.0, 0.0), (0.0, 0.0))
        for spec in ({"kind": "uniform_box", "params": {"c": 0.3}, "box": [-0.5, 1.6, -1.2, 0.4]},
                     {"kind": "exp_tails", "params": {"c": 2.0, "a": 1.0, "b": 1.5},
                      "box": [0.4, 3.0, -0.5, 2.0]}):
            t = LevyTriplet2D((0.1, 0.05), sigma, density_from_json(spec))
            for u in (0.0, 1.3, 4.0):
                s_process(t, u)
        assert calls == []
        # the count sees nquad: a Python density takes that route
        dens = density_from_json(spec)
        s_process(LevyTriplet2D((0.1, 0.05), sigma, BoxDensity(dens.fn, dens.box)), 1.3)
        assert calls

    def test_closed_route_keeps_the_tolerance_check(self, monkeypatch):
        def unresolved(*args, **kwargs):
            return 0.0, 0.25

        monkeypatch.setattr(integrate, "quad", unresolved)
        dens = density_from_json({"kind": "uniform_box", "params": {"c": 1.0},
                                  "box": [0.5, 1.5, -1.0, 1.0]})
        with pytest.raises(UndeterminedError, match="2-d quadrature") as info:
            dens.integrate(UNIT, [Strip()])
        assert info.value.residual == 0.25
