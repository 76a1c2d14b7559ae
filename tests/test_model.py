"""Triplet model: marginals, transforms, drifts, scaling, serialization."""

import json
import math
import re

import numpy as np
import pytest

from gouruin.errors import (
    InvalidModelError,
    NotApplicableError,
    NotFiniteVariationError,
    NotSupportedError,
    UndeterminedError,
)
from gouruin.model import (
    Atoms1D,
    Density1D,
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    LineDensity,
    MarginalTriplet,
    Pushforward1D,
    d_eta,
    density_from_json,
    drift_vector,
    marginal_eta,
    marginal_xi,
    mean_at_one,
    s_process,
    scale_eta,
    triplet_from_json,
    triplet_to_json,
    w_drift,
    w_jump,
    w_transform,
)
from gouruin.numerics import INF, NEG_INF
from gouruin.quadrature import Strip
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from oracles import FnBoxDensity, from_marginals, l_process

E = math.e


def atoms(*tuples):
    return FiniteAtomSet([JumpAtom(x, y, r) for x, y, r in tuples])


def triplet(gamma=(0.0, 0.0), sigma=((0.0, 0.0), (0.0, 0.0)), jumps=()):
    return LevyTriplet2D(gamma, sigma, atoms(*jumps))


# Independent oracle for the truncation-bridge region: a jump is corrected
# when its coordinate is small in the interval sense but the jump is large
# in the ball sense.
def corrected(x, y, coord):
    return abs(coord) < 1.0 and x * x + y * y >= 1.0


class TestMarginals:
    def test_continuous_pair_has_empty_correction(self):
        c = 0.7
        t = triplet((c, 0.5 - c), ((1.0, -1.0), (-1.0, 1.0)))
        m = marginal_xi(t)
        assert m.gamma == c
        assert m.sigma2 == 1.0
        assert m.jumps.atoms_or_none() == ()

    def test_unit_atom_outside_interval_and_ball(self):
        lam = 1.3
        t = triplet((0.25, -0.5), jumps=[(1.0, -1.0, lam)])
        assert not corrected(1.0, -1.0, 1.0)
        assert marginal_xi(t).gamma == 0.25
        assert marginal_eta(t).gamma == -0.5

    def test_atom_inside_interval_outside_ball_is_corrected(self):
        t = triplet((0.0, 0.0), jumps=[(0.3, 0.99, 1.0)])
        assert corrected(0.3, 0.99, 0.3)
        assert marginal_xi(t).gamma == pytest.approx(0.3, abs=1e-15)
        assert marginal_eta(t).gamma == pytest.approx(0.99, abs=1e-15)

    def test_ball_atom_needs_no_correction(self):
        t = triplet((0.1, 0.2), jumps=[(0.3, 0.4, 2.0)])
        assert marginal_xi(t).gamma == 0.1
        assert marginal_eta(t).gamma == 0.2

    def test_zero_coordinate_jumps_drop_from_the_projection(self):
        t = triplet(jumps=[(0.0, 1.5, 1.0), (-0.4, 0.0, 2.0)])
        assert marginal_xi(t).jumps.atoms_or_none() == ((-0.4, 2.0),)
        assert marginal_eta(t).jumps.atoms_or_none() == ((1.5, 1.0),)

    def test_roundtrip_via_from_marginals_is_bit_exact(self, corpus):
        for t in corpus:
            mx, me = marginal_xi(t), marginal_eta(t)
            rebuilt = from_marginals(mx, me, t.brownian_cov, t.jumps)
            mx2, me2 = marginal_xi(rebuilt), marginal_eta(rebuilt)
            assert mx2.gamma == mx.gamma
            assert me2.gamma == me.gamma
            assert mx2.sigma2 == mx.sigma2 and me2.sigma2 == me.sigma2
            assert mx2.jumps.atoms_or_none() == mx.jumps.atoms_or_none()


class TestWTransform:
    def test_pure_drift(self):
        t = triplet((0.8, 0.0))
        pair = w_transform(t)
        assert pair.gamma_tilde == (0.8, -0.8)
        assert pair.sigma == ((0.0, 0.0), (0.0, 0.0))

    def test_brownian_half_drift(self):
        # exp(-B_t) = stochexp(-B + t/2): drift of W must be one half.
        t = triplet((0.0, 0.0), ((1.0, 0.0), (0.0, 0.0)))
        pair = w_transform(t)
        assert pair.gamma_tilde[1] == pytest.approx(0.5, abs=1e-15)
        assert pair.sigma == ((1.0, -1.0), (-1.0, 1.0))

    def test_jump_map(self):
        t = triplet(jumps=[(1.0, -1.0, 2.0)])
        pair = w_transform(t)
        (a,) = pair.jumps.atoms_or_none()
        assert a.x == 1.0
        assert a.y == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-16)
        assert a.rate == 2.0

    def test_one_dim_drift_identity(self, corpus):
        # gamma_xi + gamma_W = sigma^2/2 + sum of (x 1{|x|<1} + w 1{x>-ln2})
        for t in corpus:
            m_xi = marginal_xi(t)
            m_w = marginal_eta(w_transform(t))
            rhs = 0.5 * t.sigma_xi2
            for a in t.atoms():
                if a.x == 0.0:
                    continue
                term = a.x if abs(a.x) < 1.0 else 0.0
                if a.x > -math.log(2.0):
                    term += w_jump(a.x)
                rhs += a.rate * term
            assert m_xi.gamma + m_w.gamma == pytest.approx(rhs, abs=1e-12)
            assert w_drift(t) == pytest.approx(m_w.gamma, abs=1e-12)

    def test_density_tier_is_refused(self):
        line = LineDensity("x", lambda v: 1.0, 0.5, 1.5)
        with pytest.raises(NotSupportedError):
            w_transform(LevyTriplet2D((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), line))


def _uniform_box(c, box):
    return density_from_json({"kind": "uniform_box", "params": {"c": c}, "box": box})


def _exp_tails(c, a, b, box):
    params = {"c": c, "a": a, "b": b}
    return density_from_json({"kind": "exp_tails", "params": params, "box": box})


_RIGID = ((1.0, -1.2), (-1.2, 1.44))
_ZERO = ((0.0, 0.0), (0.0, 0.0))

# Density-tier drivers of the W drift, each pinned to the W marginal drift
# of the (xi, W) pair-plane construction, marginal_eta(w_transform(t)).gamma,
# computed when that construction still took densities.  The x-axis line on
# [-1.5, 1.5] has the closed form 0.8 - int_{-ln 2}^{1.5} (1 - e^-x) dx
# = 0.38372265929162...
_W_DRIFT_PINS = [
    ("q2_box", (0.3, -0.2), _ZERO,
     lambda: _uniform_box(0.8, [-1.2, -0.1, 0.2, 1.0]), -0.2914669331930011),
    ("origin_box", (-0.4, 0.1), _RIGID,
     lambda: _uniform_box(1.0, [-0.5, 0.7, -0.4, 0.6]), 0.9721359669311848),
    ("exp_tails_wide", (0.2, 0.5), _ZERO,
     lambda: _exp_tails(2.0, 1.0, 1.5, [-0.8, 2.5, -1.0, 1.0]), -0.5859432773608979),
    ("exp_tails_left", (1.1, -0.3), ((0.5, 0.0), (0.0, 0.2)),
     lambda: _exp_tails(1.0, 0.5, 2.0, [-2.0, 3.0, 0.1, 2.0]), -1.1108706231141263),
    ("x_line_right", (0.5, 0.0), _ZERO,
     lambda: LineDensity("x", lambda v: 1.0, 0.5, 1.5), -0.7415995004357964),
    ("x_line_both", (-0.3, 0.2), _RIGID,
     lambda: LineDensity("x", lambda v: 1.0, -1.5, 1.5), 0.3837226593459605),
    ("y_line", (0.7, -0.1), _RIGID,
     lambda: LineDensity("y", lambda v: 1.0, 0.5, 1.5), -0.19999999999999996),
    ("fn_box", (0.1, 0.4), _ZERO,
     lambda: FnBoxDensity(lambda x, y: math.exp(-x * x - 2.0 * y * y), (-2.0, 2.0, -1.0, 1.0)),
     -0.21498458929044356),
]


class TestWDrift:
    @pytest.mark.parametrize(
        "gamma, sigma, jumps, pinned", [d[1:] for d in _W_DRIFT_PINS],
        ids=[d[0] for d in _W_DRIFT_PINS],
    )
    def test_density_tier_matches_the_pair_plane_route(self, gamma, sigma, jumps, pinned):
        assert w_drift(LevyTriplet2D(gamma, sigma, jumps())) == pytest.approx(pinned, abs=1e-9)

    def test_divergent_small_jump_integral_is_undetermined(self):
        line = LineDensity("x", lambda v: abs(v) ** -3.5, -0.5, 0.5)
        with pytest.raises(UndeterminedError, match="W drift diverged"):
            w_drift(LevyTriplet2D((0.0, 0.0), _ZERO, line))


class TestSProcess:
    def test_u_zero_is_the_eta_marginal(self, corpus):
        for t in corpus[:50]:
            s = s_process(t, 0.0)
            m = marginal_eta(t)
            assert s.gamma == pytest.approx(m.gamma, abs=1e-12)
            assert s.sigma2 == pytest.approx(m.sigma2, abs=1e-15)
            assert s.jumps.atoms_or_none() == m.jumps.atoms_or_none()

    def test_continuous_example_variance_cancels_at_one(self):
        t = continuous_example_triplet(0.2)
        assert s_process(t, 1.0).sigma2 == 0.0

    def test_jump_value_map(self):
        t = triplet(jumps=[(1.0, -1.0, 1.0)])
        s = s_process(t, 2.0)
        ((v, r),) = s.jumps.atoms_or_none()
        assert v == pytest.approx(-1.0 - 2.0 * (math.exp(-1.0) - 1.0), abs=1e-15)
        assert v == pytest.approx(1.0 - 2.0 / E, abs=1e-15)

    def test_jump_example_at_critical_level_is_pure_drift(self):
        c, lam = 1.0, 1.0
        t = jump_example_triplet(c, lam)
        u = E / (E - 1.0)
        s = s_process(t, u)
        assert s.jumps.atoms_or_none() == ()
        assert s.sigma2 == 0.0
        assert s.gamma == pytest.approx(c * (2.0 - u), abs=1e-12)


class TestLProcess:
    def test_no_jumps_zero_cov_is_identity(self):
        t = triplet((0.3, -0.4), ((1.0, 0.0), (0.0, 2.0)))
        pair = l_process(t)
        assert pair.gamma_tilde == (0.3, -0.4)
        assert pair.sigma == t.sigma

    def test_jump_map_scales_by_discount(self):
        t = triplet(jumps=[(1.0, -1.0, 1.0)])
        (a,) = l_process(t).jumps.atoms_or_none()
        assert a.y == pytest.approx(-math.exp(-1.0), abs=1e-16)

    def test_continuous_example_shifts_drift_by_minus_cov(self):
        t = continuous_example_triplet(0.25)
        pair = l_process(t)
        assert pair.gamma_tilde[1] == pytest.approx((0.5 - 0.25) + 1.0, abs=1e-15)


class TestDriftVector:
    def test_jump_example(self):
        c = 0.6
        d = drift_vector(jump_example_triplet(c, 2.0))
        assert d == (-c, 2 * c)

    def test_pure_drift(self):
        assert drift_vector(triplet((1.5, -2.5))) == (1.5, -2.5)

    def test_ball_atom_subtracts(self):
        t = triplet((1.0, 1.0), jumps=[(0.5, 0.5, 2.0)])
        dx, dy = drift_vector(t)
        assert dx == pytest.approx(0.0, abs=1e-15)
        assert dy == pytest.approx(0.0, abs=1e-15)

    def test_density_box_matches_exact_bounds_oracle(self):
        # The box meets the unit disk in x in [0.5, sqrt(0.75)],
        # y in [-sqrt(1 - x^2), -0.5]; integrating with these exact bounds
        # (not an indicator) gives gamma minus the small-jump integral.
        from gouruin.regions import drift_lhs
        from scipy import integrate as si

        t = LevyTriplet2D((0.3, 0.2), _ZERO, _uniform_box(1.0, [0.5, 1.5, -2.0, -0.5]))
        dx, dy = drift_vector(t)
        bounds = (0.5, math.sqrt(0.75), lambda x: -math.sqrt(1.0 - x * x), lambda x: -0.5)
        ix = si.dblquad(lambda y, x: x, *bounds, epsabs=1e-13)[0]
        iy = si.dblquad(lambda y, x: y, *bounds, epsabs=1e-13)[0]
        assert dx == pytest.approx(0.3 - ix, abs=1e-9)
        assert dy == pytest.approx(0.2 - iy, abs=1e-9)
        for u in (6.0, 10.0, 20.0):
            assert dy + u * dx == pytest.approx(drift_lhs(t, u), abs=1e-9)

    def test_gaussian_part_rejected(self):
        t = triplet((0.0, 0.0), ((1.0, 0.0), (0.0, 0.0)))
        with pytest.raises(NotFiniteVariationError):
            drift_vector(t)


class TestDEta:
    def test_atom_sum(self):
        m = MarginalTriplet(1.0, 0.0, Atoms1D([(0.5, 1.0)]))
        assert d_eta(m) == pytest.approx(0.5, abs=1e-15)

    def test_trivial(self):
        assert d_eta(MarginalTriplet(0.0, 0.0, Atoms1D([]))) == 0.0

    def test_negative_jumps_not_applicable(self):
        m = MarginalTriplet(0.4, 0.0, Atoms1D([(-0.1, 1.0)]))
        with pytest.raises(NotApplicableError):
            d_eta(m)

    def test_divergent_small_jump_integral_gives_minus_inf(self):
        # density v^-2 on (0, 1): the size-weighted small-jump integral is
        # the integral of 1/v, which diverges.
        m = MarginalTriplet(0.0, 0.0, Density1D(lambda v: v**-2, 0.0, 1.0, 1e-9))
        assert d_eta(m) == NEG_INF


class TestMeanAndScaling:
    def test_jump_example_mean(self):
        c, lam = 0.7, 1.9
        ex, ey = mean_at_one(jump_example_triplet(c, lam))
        assert ex == pytest.approx(-c + lam, abs=1e-14)
        assert ey == pytest.approx(2 * c - lam, abs=1e-14)

    def test_scale_identity(self, corpus):
        for t in corpus[:20]:
            s = scale_eta(t, 1.0)
            assert s.gamma_tilde == t.gamma_tilde
            assert s.sigma == t.sigma

    def test_scale_atom(self):
        t = triplet(jumps=[(1.0, -1.0, 2.5)])
        s = scale_eta(t, 3.0)
        (a,) = s.jumps.atoms_or_none()
        assert (a.x, a.y, a.rate) == (1.0, -3.0, 2.5)

    def test_scale_commutes_with_eta_marginal(self, corpus):
        # Oracle: the 1-d drift of the scaled component, recomputed from the
        # finite-variation decomposition of the marginal.
        for t in corpus[:60]:
            k = 1.7
            got = marginal_eta(scale_eta(t, k))
            m = marginal_eta(t)
            b = m.gamma - sum(r * v for v, r in m.jumps.atoms_or_none() if abs(v) < 1.0)
            expected = k * b + sum(
                k * v * r
                for v, r in m.jumps.atoms_or_none()
                if abs(k * v) < 1.0
            )
            assert got.gamma == pytest.approx(expected, abs=1e-12)
            assert got.sigma2 == pytest.approx(k * k * m.sigma2, rel=1e-15)

    def test_scale_requires_positive_factor(self):
        with pytest.raises(InvalidModelError):
            scale_eta(triplet(), 0.0)


class TestValidationAndJson:
    def test_sigma_must_be_psd(self):
        with pytest.raises(InvalidModelError):
            LevyTriplet2D((0, 0), ((1.0, 2.0), (2.0, 1.0)), FiniteAtomSet([]))

    def test_sigma_must_be_symmetric(self):
        with pytest.raises(InvalidModelError):
            LevyTriplet2D((0, 0), ((1.0, 0.5), (0.2, 1.0)), FiniteAtomSet([]))

    def test_atom_origin_rejected(self):
        with pytest.raises(InvalidModelError):
            JumpAtom(0.0, 0.0, 1.0)

    def test_rank_one_is_accepted(self):
        LevyTriplet2D((0, 0), ((1.0, -1.0), (-1.0, 1.0)), FiniteAtomSet([]))

    def test_json_roundtrip_atoms(self):
        t = triplet((0.1, -0.2), ((1.0, -0.5), (-0.5, 0.3)), [(1.0, -1.0, 2.0)])
        doc = triplet_to_json(t)
        t2 = triplet_from_json(doc)
        assert triplet_to_json(t2) == doc

    def test_json_density_family(self):
        doc = {
            "gamma_tilde": [0.0, 0.0],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {
                "density": {
                    "kind": "uniform_box",
                    "params": {"c": 1.0},
                    "box": [1.0, 2.0, 1.0, 2.0],
                    "tol": 1e-9,
                }
            },
        }
        t = triplet_from_json(doc)
        assert triplet_to_json(t) == doc

    @pytest.mark.parametrize("kind, params, named", [
        ("uniform_box", {"c": -1.0}, "'c'"),
        ("uniform_box", {"c": 0.0}, "'c'"),
        ("uniform_box", {"c": float("nan")}, "'c'"),
        ("uniform_box", {}, "'c'"),
        ("exp_tails", {"c": 1.0, "a": float("inf"), "b": 1.0}, "'a'"),
        ("exp_tails", {"c": 1.0, "b": 1.5}, "'a'"),
        ("exp_tails", {"c": 1.0, "a": 1.0, "b": "x"}, "'b'"),
        ("uniform_box", [1.0], "params must be an object"),
        ("uniform_box", {"c": 1.0, "zzz": [1]}, "no parameter 'zzz'"),
        # e^(800 |x|) on x in [1, 3]: the sup overflows
        ("exp_tails", {"c": 1.0, "a": -800.0, "b": 1.5}, "a = -800.0"),
        ("uniform_box", {"c": 1e308}, "c = 1e+308"),
    ])
    def test_density_family_parameters_are_validated(self, kind, params, named):
        doc = {"kind": kind, "params": params, "box": [1.0, 3.0, 0.5, 2.0]}
        with pytest.raises(InvalidModelError, match=re.escape(named)):
            density_from_json(doc)

    @pytest.mark.parametrize("kind, params, parsed", [
        ("uniform_box", {"c": "0.3"}, {"c": 0.3}),
        ("exp_tails", {"c": 2, "a": "1", "b": 1.5}, {"c": 2.0, "a": 1.0, "b": 1.5}),
    ])
    def test_parsed_parameters_serialize_against_the_schema(self, kind, params, parsed):
        # the density keeps the numbers its parameters parse to, so its JSON
        # is the package's own spec format
        import jsonschema
        from importlib import resources

        with resources.files("gouruin.schemas").joinpath("process_spec.schema.json").open() as fh:
            schema = json.load(fh)
        doc = {"gamma_tilde": [0.0, 0.0], "sigma": [[0.0, 0.0], [0.0, 0.0]],
               "jumps": {"density": {"kind": kind, "params": params, "box": [1.0, 3.0, 0.5, 2.0]}}}
        out = triplet_to_json(triplet_from_json(doc))
        assert out["jumps"]["density"]["params"] == parsed
        assert all(type(v) is float for v in out["jumps"]["density"]["params"].values())
        jsonschema.validate(out, schema)
        assert triplet_to_json(triplet_from_json(out)) == out

    def test_exp_tails_sup_takes_the_far_end_for_a_negative_rate(self):
        # -a |x| peaks at the far end of x for a < 0: e^(250 * 3) overflows,
        # e^(250 * 0.01) would not.
        doc = {"kind": "exp_tails", "params": {"c": 1.0, "a": -250.0, "b": 0.0},
               "box": [0.01, 3.0, 0.5, 2.0]}
        with pytest.raises(InvalidModelError, match="overflows"):
            density_from_json(doc)

    def test_unknown_density_family_rejected(self):
        with pytest.raises(InvalidModelError):
            triplet_from_json(
                {
                    "gamma_tilde": [0, 0],
                    "sigma": [[0, 0], [0, 0]],
                    "jumps": {"density": {"kind": "cauchy", "params": {}, "box": [0, 1, 0, 1]}},
                }
            )


class TestDensityTierMarginals:
    def test_uniform_box_marginal_gamma_matches_analytic(self):
        # Box [1, 2] x [1, 2] lies outside both truncation regions entirely,
        # so no correction applies.
        doc = {
            "gamma_tilde": [0.5, -0.5],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {
                "density": {
                    "kind": "uniform_box",
                    "params": {"c": 1.0},
                    "box": [1.0, 2.0, 1.0, 2.0],
                }
            },
        }
        t = triplet_from_json(doc)
        assert marginal_xi(t).gamma == pytest.approx(0.5, abs=1e-9)
        assert marginal_eta(t).gamma == pytest.approx(-0.5, abs=1e-9)

    def test_box_straddling_the_bridge_region(self):
        # Uniform density on [0.2, 0.8] x [0.5, 1.5]: the x-correction is the
        # integral of x over the part of the box outside the unit ball.
        t = LevyTriplet2D(
            (0.0, 0.0),
            ((0.0, 0.0), (0.0, 0.0)),
            __import__("gouruin.model", fromlist=["density_from_json"]).density_from_json(
                {"kind": "uniform_box", "params": {"c": 1.0}, "box": [0.2, 0.8, 0.5, 1.5]}
            ),
        )
        from scipy import integrate

        oracle, _ = integrate.dblquad(
            lambda y, x: x if x * x + y * y >= 1.0 else 0.0, 0.2, 0.8, 0.5, 1.5
        )
        assert marginal_xi(t).gamma == pytest.approx(oracle, abs=1e-7)

    def test_line_density_eta_marginal(self):
        line = LineDensity("y", lambda v: 1.0, 0.5, 1.5, 1e-9)
        t = LevyTriplet2D((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), line)
        m = marginal_eta(t)
        # correction: integral of y over {|y| < 1} outside the ball; on the
        # axis the ball is |y| < 1, so the correction region is empty.
        assert m.gamma == pytest.approx(0.0, abs=1e-9)
        assert m.jumps.mass(0.0, INF) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("width", [1e-4, 3e-4, 2e-3])
    def test_x_line_s_band_mass_is_exact(self, width):
        # A jump (t, 0) moves S(u) by u (1 - e^-t), so the S(u) band [a, b]
        # holds t in [-ln(1 - a/u), -ln(1 - b/u)].  Each band starts inside
        # cell 1000 of linspace(0.5, 1.5, 2048); the two narrower ones also
        # end there (a cell is 4.9e-4 wide), so a scan of that grid misses
        # them, and the 2e-3 band spans five cells.
        k, u, lo, hi = 0.8, 1.0, 0.5, 1.5
        t0 = lo + 1000.25 * (hi - lo) / 2047
        a, b = -u * math.expm1(-t0), -u * math.expm1(-(t0 + width))
        exact = k * (min(-math.log1p(-b / u), hi) - max(-math.log1p(-a / u), lo))
        mass = Pushforward1D.s_jumps(LineDensity("x", lambda v: k, lo, hi), u).mass(a, b)
        assert mass == pytest.approx(exact, rel=1e-12)
        assert exact == pytest.approx(k * width, rel=1e-9)


class TestGaussianVarianceDiscriminant:
    def test_vanishing_variance_iff_rigid_form(self, corpus):
        # The Gaussian variance of eta - u W is quadratic in u; it touches
        # zero for some u exactly when the covariance has the rigid rank-one
        # (or zero) shape.
        from gouruin.model import rigid_level, s_gaussian_variance, zero_gaussian

        for t in corpus:
            s11 = t.sigma_xi2
            s22 = t.sigma_eta2
            cov = t.brownian_cov
            if s11 > 1e-12:
                min_var = s22 - cov * cov / s11
            else:
                min_var = s22
            touches_zero = abs(min_var) <= 1e-9
            rigid = zero_gaussian(t) or rigid_level(t.sigma) is not None
            assert touches_zero == rigid, (t.sigma, min_var)
            if rigid and s11 > 1e-12:
                u0 = -cov / s11
                assert s_gaussian_variance(t.sigma, u0) <= 1e-9


class TestDensityFamilies:
    def test_exp_tails_parses_and_integrates(self):
        from gouruin.model import density_from_json

        dens = density_from_json(
            {
                "kind": "exp_tails",
                "params": {"c": 2.0, "a": 1.0, "b": 1.5},
                "box": [1.0, 3.0, 0.5, 2.0],
            }
        )
        # total mass: c * int e^-x dx * int e^-1.5 y dy over the box
        from scipy import integrate

        oracle = 2.0 * integrate.quad(lambda x: math.exp(-x), 1.0, 3.0)[0] * \
            integrate.quad(lambda y: math.exp(-1.5 * y), 0.5, 2.0)[0]
        from gouruin.regions import quadrant_mass

        assert quadrant_mass(dens, 1) == pytest.approx(oracle, rel=1e-7)

    def test_density_tier_mean(self):
        from gouruin.model import density_from_json

        c = 0.5
        dens = density_from_json(
            {"kind": "uniform_box", "params": {"c": c}, "box": [1.0, 2.0, -1.0, 1.0]}
        )
        t = LevyTriplet2D((0.25, -0.75), ((0.0, 0.0), (0.0, 0.0)), dens)
        ex, ey = mean_at_one(t)
        # box lies outside the unit ball, so the big-jump integral is the
        # whole measure: E x = c * (x1^2 - x0^2)/2 * height, E y = 0.
        assert ex == pytest.approx(0.25 + c * 1.5 * 2.0, rel=1e-7)
        assert ey == pytest.approx(-0.75, abs=1e-7)

    def test_density_scale_matches_quadrature_oracle(self):
        # Asymmetric box straddling the ball/ellipse bands so the truncation
        # adjustment is genuinely nonzero.
        from gouruin.model import density_from_json
        from scipy import integrate as si

        k = 2.0
        box = [0.1, 0.9, 0.2, 0.95]
        dens = density_from_json(
            {"kind": "uniform_box", "params": {"c": 1.0}, "box": box}
        )
        t = LevyTriplet2D((0.2, -0.3), ((0.0, 0.0), (0.0, 0.0)), dens)
        s = scale_eta(t, k)

        def diff(x, y):
            new = 1.0 if x * x + (k * y) ** 2 < 1.0 else 0.0
            old = 1.0 if x * x + y * y < 1.0 else 0.0
            return new - old

        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            gx_oracle = 0.2 + si.dblquad(
                lambda y, x: x * diff(x, y), box[0], box[1], box[2], box[3],
                epsabs=1e-11,
            )[0]
            gy_oracle = k * (
                -0.3
                + si.dblquad(
                    lambda y, x: y * diff(x, y), box[0], box[1], box[2], box[3],
                    epsabs=1e-11,
                )[0]
            )
        assert gx_oracle != pytest.approx(0.2, abs=1e-3)  # nontrivial case
        assert s.gamma_tilde[0] == pytest.approx(gx_oracle, abs=1e-5)
        assert s.gamma_tilde[1] == pytest.approx(gy_oracle, abs=1e-5)

    @pytest.mark.parametrize("k", [0.5, 2.0])
    @pytest.mark.parametrize("kind, params", [
        ("uniform_box", {"c": 1.0}),
        ("exp_tails", {"c": 2.0, "a": 1.0, "b": 1.5}),
    ])
    def test_scaled_family_stays_named(self, kind, params, k):
        # (x, k y) of a named family is the same family on the scaled box, so
        # its thresholds stay exact corner values and it still serializes.
        from gouruin.regions import thetas

        box = [0.5, 1.5, -2.0, -0.5]
        dens = density_from_json({"kind": kind, "params": params, "box": box})
        t = LevyTriplet2D((0.2, -0.3), ((0.0, 0.0), (0.0, 0.0)), dens)
        s = scale_eta(t, k)
        for x, y in ((0.5, -2.0), (0.9, -1.1), (1.5, -0.5)):
            assert s.jumps.fn(x, k * y) == pytest.approx(dens.fn(x, y) / k, rel=1e-15)
        th, th_k = thetas(dens), thetas(s.jumps)
        for name in ("theta1", "theta2", "theta3", "theta4"):
            assert math.isclose(getattr(th_k, name), k * getattr(th, name), rel_tol=1e-12)
        doc = json.loads(json.dumps(triplet_to_json(s)))
        back = triplet_from_json(doc)
        assert triplet_to_json(back) == doc
        assert back.gamma_tilde == s.gamma_tilde and back.jumps.box == s.jumps.box

    def test_levy_integral_is_bounded_by_sup_times_area(self):
        # density_from_json accepts a family only when its sup times its box
        # area is finite.  That bounds its mass, so the integral of
        # min(|z|^2, 1), at most the mass, is finite with no quadrature at
        # load time.  The origin-refined nested quadrature of the
        # Python-function oracle agrees on random accepted boxes, many of
        # them across an axis or the unit circle.
        def sup_exp(rate, lo, hi):  # max of e^(-rate |v|) over [lo, hi]
            nearest = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            return math.exp(-rate * (nearest if rate >= 0.0 else max(abs(lo), abs(hi))))

        rng = np.random.default_rng(20)
        straddles = {"x axis": 0, "y axis": 0, "unit circle": 0}
        for i in range(60):
            x0, y0 = (float(v) for v in rng.uniform(-1.5, 1.2, 2))
            w, h = (float(v) for v in rng.uniform(0.2, 1.5, 2))
            box = [x0, x0 + w, y0, y0 + h]
            c = float(rng.uniform(0.1, 3.0))
            if i % 2:
                a, b = (float(v) for v in rng.uniform(-1.0, 2.0, 2))
                spec = {"kind": "exp_tails", "params": {"c": c, "a": a, "b": b}}
                sup = c * sup_exp(a, *box[:2]) * sup_exp(b, *box[2:])
            else:
                spec = {"kind": "uniform_box", "params": {"c": c}}
                sup = c
            dens = density_from_json({**spec, "box": box, "tol": 1e-5})
            value = FnBoxDensity(dens.fn, dens.box, 1e-5).integrate(
                lambda x, y: min(x * x + y * y, 1.0), [Strip()], nonneg=True)
            assert 0.0 <= value <= sup * w * h + 1e-5, (spec, box)
            near = max(0.0, x0, -box[1]) ** 2 + max(0.0, y0, -box[3]) ** 2
            far = max(x0 * x0, box[1] ** 2) + max(y0 * y0, box[3] ** 2)
            straddles["x axis"] += y0 < 0.0 < box[3]
            straddles["y axis"] += x0 < 0.0 < box[1]
            straddles["unit circle"] += near < 1.0 < far
        assert min(straddles.values()) >= 10, straddles
