"""Region masses, critical thresholds, and the drift inequality."""

import math
import warnings

import numpy as np
import pytest

from gouruin import regions
from gouruin.errors import NotSupportedError
from gouruin.model import (
    BoxDensity,
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    LineDensity,
    _in_open_ball,
    density_from_json,
    s_jump,
    scale_eta,
)
from gouruin.numerics import INF, NEG_INF
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from gouruin.regions import (
    SmallJumpVariation,
    drift_lhs,
    drift_lhs_piecewise,
    quadrant_mass,
    region_mass,
    small_jump_variation,
    thetas,
)

E = math.e


def atoms(*tuples):
    return FiniteAtomSet([JumpAtom(x, y, r) for x, y, r in tuples])


def triplet(gamma=(0.0, 0.0), sigma=((0.0, 0.0), (0.0, 0.0)), jumps=()):
    return LevyTriplet2D(gamma, sigma, atoms(*jumps))


# Brute-force oracle: classify one atom against the moving region directly
# from the definitions, with no shared code.
def oracle_mass(atom_list, i, u):
    total = 0.0
    for x, y, r in atom_list:
        quad = {
            1: x >= 0 and y >= 0,
            2: x >= 0 and y <= 0,
            3: x <= 0 and y <= 0,
            4: x <= 0 and y >= 0,
        }[i]
        if quad and (y - u * (math.exp(-x) - 1.0)) < 0.0:
            total += r
    return total


class TestRegionMass:
    def test_jump_example_atom_leaves_region_at_critical_u(self):
        lam = 1.7
        m = atoms((1.0, -1.0, lam))
        crit = E / (E - 1.0)
        for u in (0.0, 1.0, crit - 1e-6):
            assert region_mass(m, 2, u) == lam
        for u in (crit, crit + 1e-6, 5.0):
            assert region_mass(m, 2, u) == 0.0

    def test_empty_measure(self):
        m = atoms()
        for i in range(1, 5):
            for u in (-2.0, 0.0, 3.0):
                assert region_mass(m, i, u) == 0.0

    def test_pure_negative_eta_jump_never_leaves(self):
        m = atoms((0.0, -1.0, 0.4))
        for u in (0.0, 1.0, 100.0):
            assert region_mass(m, 2, u) == 0.4

    @pytest.mark.parametrize("u", [5.07, 5.075, 5.08])
    def test_thin_corner_region_of_a_python_density(self, u):
        # A2^u on the box [0.5, 1.5] x [-2, -0.5] is a corner triangle next
        # to (0.5, -2), 1.7e-3 to 3.8e-4 wide, of mass delta^2 / (2 u e^-0.5)
        # with delta = 2 - u (1 - e^-0.5) to first order in delta.  It is
        # integrated only if the strip is cut to where it is non-empty.
        dens = BoxDensity(lambda x, y: 1.0, (0.5, 1.5, -2.0, -0.5))
        delta = 2.0 - u * (1.0 - math.exp(-0.5))
        assert region_mass(dens, 2, u) == pytest.approx(
            delta * delta / (2.0 * u * math.exp(-0.5)), rel=1e-3
        )

    def test_matches_bruteforce_on_random_atoms(self, rng):
        for _ in range(100):
            n = rng.integers(1, 6)
            lst = [
                (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 1)))
                for _ in range(n)
            ]
            m = atoms(*lst)
            for u in rng.uniform(-3, 3, 8):
                for i in range(1, 5):
                    assert region_mass(m, i, float(u)) == pytest.approx(
                        oracle_mass(lst, i, float(u)), abs=1e-12
                    )


class TestThetas:
    def test_jump_example(self):
        th = thetas(atoms((1.0, -1.0, 1.0)))
        assert th.theta2 == pytest.approx(E / (E - 1.0), abs=1e-12)
        assert th.theta1 == NEG_INF
        assert th.theta3 == 0.0
        assert th.theta4 == INF

    def test_empty_fallbacks(self):
        th = thetas(atoms())
        assert (th.theta1, th.theta2, th.theta3, th.theta4) == (NEG_INF, 0.0, 0.0, INF)

    def test_crossed_interval(self):
        th = thetas(atoms((1.0, -1.0, 1.0), (-1.0, 2.0, 1.0)))
        assert th.theta2 == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), abs=1e-12)
        assert th.theta4 == pytest.approx(2.0 / (E - 1.0), abs=1e-12)
        assert th.theta2 > th.theta4

    def test_axis_atom_with_negative_y_pins_theta2_at_infinity(self):
        th = thetas(atoms((0.0, -0.5, 1.0)))
        assert th.theta2 == INF

    def test_transition_points_against_grid_scan(self, rng):
        # theta2/theta4 are the exact transition u of the region masses.
        for _ in range(40):
            n = rng.integers(1, 7)
            lst = [
                (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 1)))
                for _ in range(n)
            ]
            th = thetas(atoms(*lst))
            grid = np.linspace(0.0, 8.0, 1601)
            m2 = np.array([oracle_mass(lst, 2, u) for u in grid])
            m4 = np.array([oracle_mass(lst, 4, u) for u in grid])
            if math.isfinite(th.theta2):
                assert all(m2[grid > th.theta2 + 1e-9] == 0.0)
                if th.theta2 > 0:
                    assert any(m2[grid < th.theta2 - 1e-9] > 0.0)
            if math.isfinite(th.theta4) and th.theta4 <= 8.0:
                assert all(m4[grid < th.theta4 - 1e-9] == 0.0) or th.theta4 == 0.0
                assert any(m4[grid > th.theta4 + 1e-9] > 0.0)

    def test_mass_vanishes_exactly_at_finite_thresholds(self, corpus):
        for t in corpus:
            th = thetas(t.jumps)
            for i, val in ((1, th.theta1), (2, th.theta2), (3, th.theta3), (4, th.theta4)):
                if math.isfinite(val):
                    assert region_mass(t.jumps, i, val) == 0.0

    def test_monotonicity_in_u(self, corpus):
        for t in corpus[:50]:
            us = np.linspace(0.0, 5.0, 41)
            m2 = [region_mass(t.jumps, 2, float(u)) for u in us]
            m4 = [region_mass(t.jumps, 4, float(u)) for u in us]
            assert all(a >= b for a, b in zip(m2, m2[1:]))
            assert all(a <= b for a, b in zip(m4, m4[1:]))

    def test_scaling_homogeneity(self, corpus):
        for t in corpus[:50]:
            th = thetas(t.jumps)
            for k in (0.5, 3.0):
                th_k = thetas(scale_eta(t, k).jumps)
                for a, b in (
                    (th_k.theta1, th.theta1),
                    (th_k.theta2, th.theta2),
                    (th_k.theta3, th.theta3),
                    (th_k.theta4, th.theta4),
                ):
                    if math.isfinite(b):
                        assert a == pytest.approx(k * b, rel=1e-12, abs=1e-12)
                    else:
                        assert a == b


class TestDriftLhs:
    def test_continuous_example_vanishes_at_one(self):
        for c in (0.0, 0.3, 1.0):
            t = continuous_example_triplet(c)
            assert drift_lhs(t, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_jump_example_linear_form(self):
        c, lam = 0.8, 1.4
        t = jump_example_triplet(c, lam)
        for u in (0.0, 1.0, 2.0, 3.5):
            assert drift_lhs(t, u) == pytest.approx(2 * c - c * u, abs=1e-14)

    def test_subordinator_drift_zero_at_u_zero(self):
        # Drift chosen to exactly offset the ball compensation of a positive
        # jump: the u = 0 drift value is the subordinator drift, here 0.
        rate, y = 1.3, 0.4
        t = triplet((0.0, rate * y), jumps=[(0.0, y, rate)])
        assert drift_lhs(t, 0.0) == pytest.approx(0.0, abs=1e-15)


class TestPiecewise:
    def test_no_jumps_single_piece(self):
        t = triplet((0.7, -0.2), ((1.0, 0.0), (0.0, 0.0)))
        f = drift_lhs_piecewise(t)
        assert f.breakpoints == ()
        assert f.pieces == ((0.7 - 0.5, -0.2),)

    def test_disk_atom_breakpoint(self):
        t = triplet(jumps=[(0.1, -0.05, 1.0)])
        f = drift_lhs_piecewise(t)
        bp = -0.05 / (math.exp(-0.1) - 1.0)
        assert len(f.breakpoints) == 1
        assert f.breakpoints[0] == pytest.approx(bp, abs=1e-12)
        # both sides evaluate consistently with the direct formula
        for u in (bp - 0.01, bp + 0.01):
            assert f(u) == pytest.approx(drift_lhs(t, u), abs=1e-14)

    def test_jump_example_single_piece(self):
        t = jump_example_triplet(1.0, 1.0)
        f = drift_lhs_piecewise(t)
        assert f.breakpoints == ()
        assert f.pieces == ((-1.0, 2.0),)

    def test_pointwise_agreement_on_random_u(self, corpus, rng):
        for t in corpus[:40]:
            f = drift_lhs_piecewise(t)
            for u in rng.uniform(-4, 4, 25):
                assert f(float(u)) == pytest.approx(
                    drift_lhs(t, float(u)), rel=1e-10, abs=1e-10
                )

    def test_density_tier_unsupported(self):
        dens = density_from_json(
            {"kind": "uniform_box", "params": {"c": 1.0}, "box": [1, 2, 1, 2]}
        )
        t = LevyTriplet2D((0, 0), ((0, 0), (0, 0)), dens)
        with pytest.raises(NotSupportedError):
            drift_lhs_piecewise(t)

    def test_scaling_homogeneity_of_drift_lhs(self, corpus, rng):
        # Homogeneity (eta, u) -> (k eta, k u) holds wherever S(u) has no
        # negative jumps, which is the whole domain on which the inequality
        # enters the no-ruin decision.  Off that set the value depends on
        # ball-truncation bookkeeping that rescaling genuinely changes.
        from gouruin.classify import _s_negative_jump_mass

        checked = 0
        for t in corpus[:60]:
            k = 2.5
            tk = scale_eta(t, k)
            for u in rng.uniform(-3, 3, 10):
                if _s_negative_jump_mass(t, float(u)) > 0.0:
                    continue
                checked += 1
                lhs = drift_lhs(t, float(u))
                lhs_k = drift_lhs(tk, k * float(u))
                assert lhs_k == pytest.approx(k * lhs, rel=1e-10, abs=1e-10)
        assert checked > 100


def disk_atom_triplet(rng, n_atoms):
    """Zero-Gaussian triplet with ``n_atoms`` atoms inside the unit disk."""
    r = np.sqrt(rng.uniform(0.01, 0.9, n_atoms))
    ang = rng.uniform(0.0, 2.0 * math.pi, n_atoms)
    rates = rng.uniform(0.05, 2.0, n_atoms)
    jumps = [(ri * math.cos(ai), ri * math.sin(ai), wi) for ri, ai, wi in zip(r, ang, rates)]
    return triplet((float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))), jumps=jumps)


def drift_scale(t):
    """u -> size of the terms that make up drift_lhs(t, u): the yardstick of
    a 1e-12 relative comparison."""
    gx, gy = t.gamma_tilde
    disk = [a for a in t.jumps.atoms_or_none() if _in_open_ball(a.x, a.y)]
    per_u = abs(gx) + 0.5 * t.sigma_xi2 + sum(a.rate * abs(a.x) for a in disk)
    fixed = 1.0 + abs(gy) + sum(a.rate * abs(a.y) for a in disk)
    return lambda u: fixed + abs(u) * per_u


def assert_matches_drift_lhs(t):
    """Every at_points[k] is drift_lhs at bp[k], and every piece is drift_lhs
    inside its interval wherever no atom's jump is in the dead band; returns
    the number of pieces so checked."""
    f = drift_lhs_piecewise(t)
    scale = drift_scale(t)
    assert list(f.breakpoints) == sorted(set(f.breakpoints))
    assert len(f.at_points) == len(f.breakpoints) == len(f.pieces) - 1
    for bp, val in zip(f.breakpoints, f.at_points):
        assert abs(val - drift_lhs(t, bp)) <= 1e-12 * scale(bp)
    disk = [a for a in t.jumps.atoms_or_none() if _in_open_ball(a.x, a.y)]
    xs = np.array([a.x for a in disk])
    ys = np.array([a.y for a in disk])
    cuts = (NEG_INF,) + f.breakpoints + (INF,)
    checked = 0
    for (slope, intercept), lo, hi in zip(f.pieces, cuts, cuts[1:]):
        if math.isinf(lo):
            u = 0.0 if math.isinf(hi) else hi - 1.0
        else:
            u = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        if not lo < u < hi or (disk and np.abs(ys - u * np.expm1(-xs)).min() <= 4e-12):
            continue
        checked += 1
        assert abs(slope * u + intercept - drift_lhs(t, u)) <= 1e-12 * scale(u)
    return checked


class TestPiecewiseSweep:
    def test_matches_drift_lhs_on_the_corpus(self, corpus):
        for t in corpus:  # no corpus piece lies inside a dead band
            assert assert_matches_drift_lhs(t) == len(drift_lhs_piecewise(t).pieces)

    def test_matches_drift_lhs_on_disk_atoms(self, rng):
        for n_atoms in rng.integers(1, 401, 50):
            t = disk_atom_triplet(rng, int(n_atoms))
            assert assert_matches_drift_lhs(t) > 0

    def test_duplicate_critical_levels(self):
        # c = y / w(x) = 0.5 exactly for each atom, on both sides of x = 0.
        jumps = [(x, 0.5 * math.expm1(-x), r) for x, r in ((0.3, 1.0), (-0.4, 0.7), (0.2, 1.3))]
        t = triplet((0.2, 0.9), jumps=jumps)
        f = drift_lhs_piecewise(t)
        assert f.breakpoints == (0.5,)
        (below_slope, below_int), (above_slope, above_int) = f.pieces
        # the x < 0 atom pushes S(u) up below its level, the x > 0 ones above
        assert below_slope == pytest.approx(0.2 + 0.4 * 0.7, abs=1e-15)
        assert below_int == pytest.approx(0.9 - 0.7 * jumps[1][1], abs=1e-15)
        assert above_slope == pytest.approx(0.2 - 0.3 * 1.0 - 0.2 * 1.3, abs=1e-15)
        assert above_int == pytest.approx(0.9 - jumps[0][1] - 1.3 * jumps[2][1], abs=1e-15)
        assert f.at_points[0] == pytest.approx(drift_lhs(t, 0.5), abs=1e-15)
        assert assert_matches_drift_lhs(t) == 2

    def test_levels_closer_than_the_dead_band(self):
        w = math.expm1(-0.3)
        jumps = [(0.3, 0.5 * w, 1.0), (0.3, (0.5 + 1e-13) * w, 2.0), (-0.3, 0.5 * math.expm1(0.3), 0.5)]
        t = triplet((0.1, 0.4), jumps=jumps)
        f = drift_lhs_piecewise(t)
        assert len(f.breakpoints) == 2
        assert f.breakpoints[1] - f.breakpoints[0] < 1e-12 / abs(w)
        # At both levels every atom's jump is in the dead band, so each value
        # counts all three atoms, as drift_lhs does.
        for bp, val in zip(f.breakpoints, f.at_points):
            assert val == pytest.approx(drift_lhs(t, bp), abs=1e-15)
            assert val == pytest.approx(
                0.4 + 0.1 * bp - sum(r * (bp * x + y) for x, y, r in jumps), abs=1e-15
            )
        # Between them, only the x > 0 atom whose level lies below counts.
        slope, intercept = f.pieces[1]
        assert slope == pytest.approx(0.1 - 0.3 * 1.0, abs=1e-15)
        assert intercept == pytest.approx(0.4 - jumps[0][1], abs=1e-15)
        # that narrow piece lies inside the dead band: only the outer two check
        assert assert_matches_drift_lhs(t) == 2

    @pytest.mark.parametrize("y", [-1e-12, -5e-13, 5e-13])
    def test_eta_atom_in_the_dead_band(self, y):
        rate = 1e3
        t = triplet((0.5, 0.2), jumps=[(0.0, y, rate), (0.2, -0.1, 1.0)])
        f = drift_lhs_piecewise(t)
        assert len(f.breakpoints) == 1
        bp = f.breakpoints[0]
        # It counts at the breakpoint (sgn(y) = 0), but in the pieces only
        # when its jump y is strictly positive.
        assert f.at_points[0] == pytest.approx(drift_lhs(t, bp), abs=1e-15)
        in_pieces = rate * y if y > 0.0 else 0.0
        assert f.pieces[0][1] == pytest.approx(0.2 - in_pieces, abs=1e-15)
        assert f.pieces[1][1] == pytest.approx(0.2 - in_pieces + 0.1, abs=1e-15)
        for u in (bp - 1.0, bp + 1.0):
            assert f(u) - drift_lhs(t, u) == pytest.approx(rate * y - in_pieces, abs=1e-15)

    def test_atom_on_the_unit_circle(self):
        t = triplet((0.3, 0.1), jumps=[(0.6, 0.8, 1.5), (0.0, 1.0, 2.0), (-0.2, 0.1, 1.0)])
        f = drift_lhs_piecewise(t)
        assert f.breakpoints == (0.1 / math.expm1(0.2),)
        assert f.pieces[0] == pytest.approx((0.3 + 0.2, 0.1 - 0.1), abs=1e-15)
        assert f.pieces[1] == pytest.approx((0.3, 0.1), abs=1e-15)
        assert assert_matches_drift_lhs(t) == 2

    def test_no_drift_lhs_call_and_linear_jump_tests(self, monkeypatch):
        n = 2000
        t = disk_atom_triplet(np.random.default_rng(3), n)
        calls = {"drift_lhs": 0, "s_jump": 0}

        def counted(name):
            fn = getattr(regions, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(regions, name, counted(name))
        f = drift_lhs_piecewise(t)
        assert len(f.breakpoints) == n
        assert calls["drift_lhs"] == 0
        assert calls["s_jump"] <= 10 * n


class TestSmallJumpVariation:
    def test_atoms_always_finite(self, corpus):
        for t in corpus[:20]:
            assert small_jump_variation(t, 1.3) is SmallJumpVariation.FINITE

    def test_divergent_line_density(self):
        line = LineDensity("y", lambda v: v**-2, 0.0, 1.0, 1e-9)
        t = LevyTriplet2D((0, 0), ((0, 0), (0, 0)), line)
        assert small_jump_variation(t, 0.7) is SmallJumpVariation.INFINITE

    def test_empty_finite(self):
        assert small_jump_variation(triplet(), 2.0) is SmallJumpVariation.FINITE


class TestDensityThetas:
    # A named family is positive on its whole closed box, so each threshold
    # is the critical value y / (e^-x - 1) at a corner, exactly.
    def test_box_away_from_axes(self, monkeypatch):
        # A2 mass on [0.5, 1] x [-2, -0.5]: the critical value is the
        # supremum of -y / (1 - e^-x) over the box, attained at the corner
        # (0.5, -2).  No region mass is integrated.
        dens = density_from_json(
            {"kind": "uniform_box", "params": {"c": 1.0}, "box": [0.5, 1.0, -2.0, -0.5]}
        )
        for name in ("region_mass", "quadrant_mass"):
            monkeypatch.setattr(regions, name, lambda *a: pytest.fail("integrated"))
        th = thetas(dens)
        expected = 2.0 / (1.0 - math.exp(-0.5))
        assert th.theta2 == pytest.approx(expected, rel=1e-12)
        assert (th.theta1, th.theta3, th.theta4) == (NEG_INF, 0.0, INF)
        monkeypatch.undo()
        assert quadrant_mass(dens, 3) == pytest.approx(0.0, abs=1e-9)

    def test_python_density_box_is_bisected(self):
        # The same box as a Python density: the bisection brackets
        # {mass > tol}; with mass decaying like the area of a corner
        # triangle the threshold resolves to about the cube root of the mass
        # tolerance, always from below.
        dens = BoxDensity(lambda x, y: 1.0, (0.5, 1.0, -2.0, -0.5))
        th = thetas(dens)
        expected = 2.0 / (1.0 - math.exp(-0.5))
        assert expected * (1.0 - 2e-2) <= th.theta2 <= expected * (1.0 + 1e-9)
        assert th.theta4 == INF

    def test_negative_branch_thresholds_for_boxes(self):
        # A1 box: critical values y/(e^-x - 1) over the box; the branch
        # threshold is their essential supremum (closest to zero).
        dens1 = density_from_json(
            {"kind": "uniform_box", "params": {"c": 1.0}, "box": [1.1, 1.8, 0.5, 1.2]}
        )
        th1 = thetas(dens1)
        expected1 = 0.5 / (math.exp(-1.8) - 1.0)
        assert abs(th1.theta1 - expected1) <= 1e-12 * abs(expected1)
        assert th1.theta2 == 0.0 and th1.theta3 == 0.0 and th1.theta4 == INF

        # A3 box: the branch floor is the essential infimum of the critical
        # values, attained at the deep corner.
        dens3 = density_from_json(
            {"kind": "uniform_box", "params": {"c": 1.0}, "box": [-1.8, -1.1, -1.2, -0.5]}
        )
        th3 = thetas(dens3)
        expected3 = -1.2 / (math.exp(1.1) - 1.0)
        assert abs(th3.theta3 - expected3) <= 1e-12 * abs(expected3)
        assert th3.theta1 == NEG_INF and th3.theta2 == 0.0 and th3.theta4 == INF

    @pytest.mark.parametrize("box, expected", [
        # touching the y axis from the right: no A3 or A4 mass
        ((0.0, 1.0, -1.0, 0.0), (NEG_INF, INF, 0.0, INF)),
        # touching it from the left: A4 fills from u = 0 on
        ((-1.0, 0.0, 0.0, 1.0), (NEG_INF, 0.0, 0.0, 0.0)),
        # straddling both axes: every branch reaches its axis value
        ((-1.0, 1.0, -1.0, 1.0), (0.0, INF, NEG_INF, 0.0)),
    ])
    def test_boxes_on_an_axis_take_the_atom_conventions(self, box, expected):
        dens = density_from_json({"kind": "uniform_box", "params": {"c": 1.0}, "box": box})
        th = thetas(dens)
        assert (th.theta1, th.theta2, th.theta3, th.theta4) == expected

    @pytest.mark.parametrize("lo, hi, sides", [
        (0.5, 1.5, (1.0,)),  # the positive side: A_1 and A_2
        (-1.5, -0.5, (-1.0,)),  # the negative side: A_3 and A_4
        (-1.0, 1.0, (1.0, -1.0)),  # straddling 0: both
    ])
    def test_x_axis_line_takes_the_atom_thresholds_of_its_sides(self, monkeypatch, lo, hi, sides):
        # Every critical value y / (e^-x - 1) on y = 0 is 0, so each side
        # with mass gives the thresholds of one atom on it, signed zeros
        # included, and no region mass is searched.
        monkeypatch.setattr(regions, "region_mass", lambda *a: pytest.fail("bisected"))
        th = thetas(LineDensity("x", lambda v: 1.0, lo, hi))
        ref = regions._atom_thetas([JumpAtom(x, 0.0, 1.0) for x in sides])
        assert repr(th) == repr(ref)

    def test_x_axis_line_without_mass_has_empty_branches(self):
        th = thetas(LineDensity("x", lambda v: 0.0, -1.0, 1.0))
        assert repr(th) == repr(regions._atom_thetas(()))


def _box_side(rng) -> list:
    """One side of a random box: away from 0 on either side, touching 0
    from either side, or straddling it, with every end at least 0.1 from 0
    unless it is 0."""
    w = rng.uniform(0.3, 1.2)
    lo = [
        rng.uniform(0.1, 1.0), -rng.uniform(0.1, 1.0) - w, 0.0, -w, -rng.uniform(0.1, w - 0.1)
    ][rng.integers(5)]
    return [float(lo), float(lo + w)]


class TestCornerThetasAgainstRegionMass:
    def test_region_mass_changes_side_at_each_finite_theta(self):
        # 1e-2 relative (or 1e-2 at theta = 0) inside each finite threshold
        # the quadrature region mass is above the emptiness tolerance, and
        # as far outside it is not.  A_1 and A_2 hold mass below their
        # thresholds, A_3 and A_4 above theirs.
        rng = np.random.default_rng(20260419)
        checked = 0
        for _ in range(220):
            box = _box_side(rng) + _box_side(rng)
            c = float(rng.uniform(0.5, 2.0))
            if rng.integers(2):
                spec = {"kind": "uniform_box", "params": {"c": c}, "box": box}
            else:
                a, b = (float(v) for v in rng.uniform(0.0, 0.5, 2))
                spec = {"kind": "exp_tails", "params": {"c": c, "a": a, "b": b}, "box": box}
            dens = density_from_json(spec)
            th = thetas(dens)
            tol = regions.mass_tol(dens)
            for i, empty in zip((1, 2, 3, 4), (NEG_INF, 0.0, 0.0, INF)):
                v = getattr(th, f"theta{i}")
                if v == empty or not math.isfinite(v):
                    continue
                h = 1e-2 * abs(v) if v != 0.0 else 1e-2
                inside, outside = (v - h, v + h) if i in (1, 2) else (v + h, v - h)
                assert region_mass(dens, i, inside) > tol, (spec, i, v)
                assert region_mass(dens, i, outside) <= tol, (spec, i, v)
                checked += 1
        assert checked >= 200


class TestBisectTheta:
    """Every exit of the density-tier threshold search, on a stubbed region
    mass: the calls are recorded as the levels u they ask about."""

    class _Measure:
        tol = 1e-9  # region masses at or below 16 tol count as empty

    def _search(self, monkeypatch, mass, i, sign, vanishing):
        calls = []

        def stub(m, j, u):
            assert j == i
            calls.append(u)
            return mass(u)

        monkeypatch.setattr(regions, "region_mass", stub)
        monkeypatch.setattr(regions, "quadrant_mass", lambda m, j: 1.0)
        return regions._bisect_theta(self._Measure(), i, sign, vanishing), calls

    @pytest.mark.parametrize("i, sign, vanishing, mass", [
        (2, 1.0, True, lambda u: 1.0 if u < 2.5 else 0.0),
        (3, -1.0, True, lambda u: 1.0 if u > -2.5 else 0.0),
        (4, 1.0, False, lambda u: 1.0 if u > 2.5 else 0.0),
        (1, -1.0, False, lambda u: 1.0 if u < -2.5 else 0.0),
    ])
    def test_transition_is_bracketed_then_bisected(self, monkeypatch, i, sign, vanishing, mass):
        with warnings.catch_warnings():
            warnings.simplefilter("error", regions.RegionBoundaryWarning)
            value, calls = self._search(monkeypatch, mass, i, sign, vanishing)
        assert value == pytest.approx(sign * 2.5, rel=1e-12)
        expansion = [0.0, 1.0, 4.0] if vanishing else [1.0, 4.0]
        assert calls[:len(expansion)] == [sign * v for v in expansion]
        assert len(calls) == len(expansion) + 48

    def test_vanishing_region_empty_at_zero_warns(self, monkeypatch):
        with pytest.warns(regions.RegionBoundaryWarning, match="vanishes next to"):
            value, calls = self._search(monkeypatch, lambda u: 0.0, 2, 1.0, True)
        assert value == 0.0 and calls == [0.0]

    @pytest.mark.parametrize("i, sign, empty", [(4, 1.0, INF), (1, -1.0, NEG_INF)])
    def test_region_empty_out_to_the_cap_warns(self, monkeypatch, i, sign, empty):
        with pytest.warns(regions.RegionBoundaryWarning, match="stayed empty"):
            value, calls = self._search(monkeypatch, lambda u: 0.0, i, sign, False)
        assert value == empty
        assert calls == [sign * 4.0 ** k for k in range(20)]

    @pytest.mark.parametrize("i, sign", [(2, 1.0), (3, -1.0)])
    def test_region_full_out_to_the_cap_is_infinite(self, monkeypatch, i, sign):
        with warnings.catch_warnings():
            warnings.simplefilter("error", regions.RegionBoundaryWarning)
            value, calls = self._search(monkeypatch, lambda u: 1.0, i, sign, True)
        assert value == sign * INF
        assert calls == [sign * v for v in [0.0] + [4.0 ** k for k in range(20)]]

    def test_empty_quadrant_needs_no_search(self, monkeypatch):
        monkeypatch.setattr(regions, "quadrant_mass", lambda m, j: 0.0)
        monkeypatch.setattr(regions, "region_mass", lambda m, j, u: pytest.fail("searched"))
        assert regions._bisect_theta(self._Measure(), 4, 1.0, False) == INF
