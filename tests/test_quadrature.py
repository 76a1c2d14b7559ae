"""Strip edges: closed-form crossings and the exact x-axis segments; the
closed inner y-integral of the named families against nested quadrature of
the Python-function oracle."""

import ast
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import gouruin
from gouruin import quadrature
from gouruin.errors import UndeterminedError
from gouruin.model import (
    UNIT, X_COORD, Y_COORD, BoxDensity, LevyTriplet2D, LineDensity, _correction_strips,
    _exp_segment, density_from_json, marginal_eta, s_band, s_process, w_jump,
)
from gouruin.quadrature import (
    AffineY, BandEdge, ChordEdge, ConstEdge, LineEdge, Strip, clip_strips_to_box,
    integrate_strips, strips_outside_ball,
)
from gouruin.regions import _disk_region_strips, _quadrant_strips, quadrant_mass
from oracles import FnBoxDensity, nquad_strips, strips_in_annulus

EDGES = [
    ConstEdge(0.3),
    BandEdge(2.0, 0.5),
    BandEdge(-1.5, -0.2),
    BandEdge(0.0, 0.1),
    ChordEdge(0.8),
    ChordEdge(1.0, -1.0, 2.0),
    LineEdge(1.5),
    LineEdge(-0.4),
    LineEdge(0.0),
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


    @pytest.mark.parametrize("slope", [0.0, 0.4, -1.3, 4.0])
    @pytest.mark.parametrize("chord", [ChordEdge(1.0), ChordEdge(1.0, -1.0), ChordEdge(0.8, 1.0, 2.0)])
    def test_a_line_meets_a_circle_at_its_chord_crossings(self, slope, chord):
        line = LineEdge(slope)
        for x in line.chord_crossings(chord):
            assert x * x + (line.at(x) * chord.d) ** 2 == pytest.approx(chord.r ** 2, rel=1e-14)

    def test_kinks_hold_the_crossings_of_a_line_with_the_chords(self):
        # The positive side of u x + y in the disk region of drift_lhs at
        # u = 0.75: the line y = -0.75 x leaves the disk at x = +-0.8.
        (s,) = _disk_region_strips(0.75, 1.0)
        assert s.kinks() == pytest.approx([-0.8, 0.0, 0.8], rel=1e-15)


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


# Every AffineY integrand of the package: masses, coordinates, the S(u)
# jump at several u, W's jump, the xi-margin lift of w_drift, the positive
# and negative parts of x and y of drift_vector, and the signed u x + y of
# drift_lhs.
INTEGRANDS = [
    ("1", UNIT), ("x", X_COORD), ("y", Y_COORD), ("-y", AffineY(c1=lambda x: -1.0)),
    ("ux+y(u=0.4)", AffineY(lambda x: 0.4 * x, lambda x: 1.0)),
    ("-(ux+y)(u=-1.3)", AffineY(lambda x: 1.3 * x, lambda x: -1.0)),
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
    ("drift side", lambda r: _disk_region_strips(
        r.choice([0.0, 0.4, -1.3, 4.0, r.uniform(-3, 5)]), r.choice([1.0, -1.0]))),
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
        # 120 boxes per family; box i takes strip kind i mod 9 and integrand
        # (i div 9) mod 12, so every pair of the two lists is run.
        r = np.random.default_rng(20241 if kind == "uniform_box" else 20242)
        k = len(STRIP_KINDS)
        assert 120 >= k * len(INTEGRANDS)
        for i in range(120):
            spec = {"kind": kind, "params": family_params(r, kind, i),
                    "box": [float(v) for v in random_box(r, i)]}
            dens = density_from_json(spec)
            strips = clip_strips_to_box(STRIP_KINDS[i % k][1](r), dens.box)
            name, integrand = INTEGRANDS[(i // k) % len(INTEGRANDS)]
            closed = integrate_strips(dens.y_moments, strips, integrand, dens.tol)
            ref, ref_err = nquad_strips(dens.fn, strips, integrand, dens.tol)
            assert abs(closed - ref) <= dens.tol + ref_err, (i, STRIP_KINDS[i % k][0], name, spec)

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
        # the count sees nquad: the Python-function oracle takes that route
        dens = density_from_json(spec)
        s_process(LevyTriplet2D((0.1, 0.05), sigma, FnBoxDensity(dens.fn, dens.box)), 1.3)
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


# ---------------------------------------------------------------------------
# One quadrature route: no nested quadrature in the package
# ---------------------------------------------------------------------------

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestOneRoute:
    def test_the_package_names_no_nested_quadrature(self):
        # No nquad (nor the dblquad and tplquad that wrap it) anywhere in
        # the package, and a BoxDensity is built only by density_from_json.
        nested = {"nquad", "dblquad", "tplquad"}
        found, builds = [], []
        for path in sorted(Path(gouruin.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in nested:
                    found.append((path.name, getattr(node, "lineno", None)))
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.name != "density_from_json":
                    builds += [
                        (path.name, node.lineno) for node in ast.walk(fn)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "BoxDensity"
                    ]
        assert found == []
        assert builds == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_check_density_pass_runs_no_nquad(self, monkeypatch, workloads, seed):
        # Every op of the benchmark's density workload passes its oracle
        # with no nquad call, and no integral of a named family takes a
        # limit toward the origin.  A segment of the x axis across the
        # origin still takes one, so the count sees that limit.
        calls = {"nquad": 0, "limit": 0, "limit_in_box": 0}
        depth = [0]
        nquad, limit, box_integrate = integrate.nquad, quadrature.limit_toward_origin, BoxDensity.integrate

        def counted_nquad(*args, **kwargs):
            calls["nquad"] += 1
            return nquad(*args, **kwargs)

        def counted_limit(*args, **kwargs):
            calls["limit"] += 1
            calls["limit_in_box"] += depth[0] > 0
            return limit(*args, **kwargs)

        def box_integral(self, *args, **kwargs):
            depth[0] += 1
            try:
                return box_integrate(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(integrate, "nquad", counted_nquad)
        monkeypatch.setattr(quadrature, "limit_toward_origin", counted_limit)
        monkeypatch.setattr(BoxDensity, "integrate", box_integral)
        wl = workloads.build("check_density", seed)
        ctx = {}
        for op in wl.ops:
            ctx[op.name] = op.run(ctx)
            assert op.check(ctx[op.name], ctx).problems == [], op.name
        assert calls["nquad"] == 0 and calls["limit_in_box"] == 0
        seen = calls["limit"]
        assert quadrant_mass(LineDensity("x", lambda v: 1.0, -0.5, 0.5), 1) == pytest.approx(0.5)
        assert calls["limit"] > seen


class TestFnBoxOracle:
    def test_the_oracle_splits_its_corners(self):
        # The chord y = sqrt(1 - x^2) meets the box edge y = 1.515 at
        # x = +-0.44 and the box's lower edge lies above y = 0: unsplit,
        # the outer level of nquad missed that corner and put gamma_eta
        # 5.0e-6 off, with an error estimate below tol.  The reference is a
        # 1-d quadrature of the same correction over y, split at the chord
        # end sqrt(1 - x1^2).
        box = (-2.428644051576947, 0.6923097393314539, 0.06501791411104252, 1.5151182904901705)
        c = 2.232378377543044
        dens = FnBoxDensity(lambda x, y: c, box)
        gamma_eta = marginal_eta(LevyTriplet2D((0.1, 0.05), ((0.0, 0.0), (0.0, 0.0)), dens)).gamma
        assert abs(gamma_eta - 2.1334116764456854) <= dens.tol
        named = density_from_json({"kind": "uniform_box", "params": {"c": c}, "box": list(box)})
        closed = marginal_eta(LevyTriplet2D((0.1, 0.05), ((0.0, 0.0), (0.0, 0.0)), named)).gamma
        assert abs(closed - 2.1334116764456854) <= named.tol
