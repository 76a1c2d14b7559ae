"""Subordinator certificates, the feasible-level set, the ruin decision, the
lower-bound function, and the side conditions."""

import math

import numpy as np
import pytest

from gouruin.classify import (
    Branch,
    DecisionKind,
    FailedCondition,
    Verdict,
    delta,
    feasible_u_set,
    is_subordinator_1d,
    is_subordinator_s,
    no_ruin_threshold,
    z_infinity_converges,
)
from gouruin.errors import InvalidModelError
from gouruin.model import (
    Atoms1D,
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    LineDensity,
    MarginalTriplet,
    marginal_eta,
    s_process,
    scale_eta,
    w_transform,
)
from gouruin.numerics import NEG_INF
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from oracles import is_degenerate, is_stationary_possible

E = math.e
E_RATIO = E / (E - 1.0)


def atoms(*tuples):
    return FiniteAtomSet([JumpAtom(x, y, r) for x, y, r in tuples])


def triplet(gamma=(0.0, 0.0), sigma=((0.0, 0.0), (0.0, 0.0)), jumps=()):
    return LevyTriplet2D(gamma, sigma, atoms(*jumps))


class TestSubordinator1d:
    def test_pure_positive_drift(self):
        cert = is_subordinator_1d(MarginalTriplet(1.0, 0.0, Atoms1D([])))
        assert cert.verdict is Verdict.YES
        assert cert.drift_d == 1.0

    def test_brownian_fails_gaussian(self):
        cert = is_subordinator_1d(MarginalTriplet(0.0, 1.0, Atoms1D([])))
        assert cert.verdict is Verdict.NO
        assert cert.failing_condition is FailedCondition.GAUSSIAN

    def test_negative_jump_fails(self):
        cert = is_subordinator_1d(MarginalTriplet(0.4, 0.0, Atoms1D([(-0.1, 1.0)])))
        assert cert.verdict is Verdict.NO
        assert cert.failing_condition is FailedCondition.NEGATIVE_JUMPS

    def test_negative_drift_fails(self):
        cert = is_subordinator_1d(MarginalTriplet(0.1, 0.0, Atoms1D([(0.5, 1.0)])))
        assert cert.verdict is Verdict.NO
        assert cert.failing_condition is FailedCondition.DRIFT
        assert cert.drift_d == pytest.approx(0.1 - 0.5, abs=1e-15)


class TestSubordinatorS:
    def test_continuous_example_at_one(self):
        assert is_subordinator_s(continuous_example_triplet(0.4), 1.0).verdict is Verdict.YES

    def test_jump_example_cases(self):
        t = jump_example_triplet(1.0, 1.0)
        assert is_subordinator_s(t, E_RATIO).verdict is Verdict.YES
        c25 = is_subordinator_s(t, 2.5)
        assert c25.verdict is Verdict.NO
        assert c25.failing_condition is FailedCondition.DRIFT
        c1 = is_subordinator_s(t, 1.0)
        assert c1.verdict is Verdict.NO
        assert c1.failing_condition is FailedCondition.NEGATIVE_JUMPS

    def test_u_zero_reduces_to_eta(self, corpus):
        for t in corpus[:60]:
            a = is_subordinator_s(t, 0.0).verdict
            b = is_subordinator_1d(marginal_eta(t)).verdict
            assert a is b

    def test_oracle_equivalence(self, corpus, rng):
        for t in corpus:
            for u in rng.uniform(-3, 3, 10):
                v1 = is_subordinator_s(t, float(u)).verdict
                v2 = is_subordinator_1d(s_process(t, float(u))).verdict
                assert v1 is v2


class TestFeasibleSet:
    def test_continuous_example_single_point(self):
        feas = feasible_u_set(continuous_example_triplet(0.1))
        (iv,) = feas.intervals
        assert iv.lo == iv.hi == 1.0

    def test_jump_example_interval(self):
        feas = feasible_u_set(jump_example_triplet(1.0, 1.0))
        (iv,) = feas.intervals
        assert iv.lo == pytest.approx(E_RATIO, abs=1e-12)
        assert iv.hi == pytest.approx(2.0, abs=1e-12)

    def test_full_rank_gaussian_empty(self):
        t = triplet(sigma=((1.0, 0.0), (0.0, 1.0)))
        assert feasible_u_set(t).is_empty()

    def test_membership_matches_pointwise_test(self, corpus, rng):
        for t in corpus[:80]:
            feas = feasible_u_set(t)
            for u in rng.uniform(-3, 3, 6):
                point = is_subordinator_s(t, float(u)).verdict is Verdict.YES
                # Interval membership may disagree only within the boundary
                # dead band; avoid sampling there.
                near_edge = any(
                    abs(float(u) - b) < 1e-9
                    for iv in feas.intervals
                    for b in (iv.lo, iv.hi)
                    if math.isfinite(b)
                )
                if not near_edge:
                    assert feas.contains(float(u)) == point


class TestNoRuinThreshold:
    def test_continuous_example(self):
        r = no_ruin_threshold(continuous_example_triplet(0.0))
        assert r.decision.kind is DecisionKind.NO_RUIN_FROM
        assert r.decision.threshold == 1.0
        assert r.branch is Branch.SIGMA_POSITIVE
        assert r.certificate.verdict is Verdict.YES

    def test_jump_example(self):
        r = no_ruin_threshold(jump_example_triplet(1.0, 1.0))
        assert r.decision.kind is DecisionKind.NO_RUIN_FROM
        assert r.decision.threshold == pytest.approx(E_RATIO, abs=1e-12)
        assert r.branch is Branch.SIGMA_ZERO

    def test_independent_brownians_ruin_everywhere(self):
        t = triplet(sigma=((1.0, 0.0), (0.0, 1.0)))
        r = no_ruin_threshold(t)
        assert r.decision.kind is DecisionKind.RUIN_EVERYWHERE

    def test_eta_subordinator_gives_zero_threshold(self):
        # Positive drift, positive jumps only: no ruin from level zero.
        t = triplet((0.0, 0.5), jumps=[(0.0, 0.3, 1.0)])
        r = no_ruin_threshold(t)
        assert r.decision.kind is DecisionKind.NO_RUIN_FROM
        assert r.decision.threshold == 0.0

    def test_axis_jump_blocks_positive_levels_only(self):
        # A negative xi jump with no eta component rules out every positive
        # level but leaves level zero feasible when eta is a subordinator.
        t = triplet((0.0, 1.0), jumps=[(-1.0, 0.0, 1.0)])
        r = no_ruin_threshold(t)
        assert r.decision.kind is DecisionKind.NO_RUIN_FROM
        assert r.decision.threshold == 0.0

    def test_consistency_with_delta(self, corpus):
        for t in corpus[:80]:
            r = no_ruin_threshold(t)
            if r.decision.kind is DecisionKind.NO_RUIN_FROM:
                u = r.decision.threshold
                assert delta(t, u + 1e-6) >= 0.0
                if u > 1e-9:
                    assert delta(t, u * 0.5) < 0.0 or delta(t, u * 0.5) == NEG_INF
            else:
                zs = np.linspace(0.0, 4.0, 9)
                assert all(delta(t, float(z)) < 0.0 for z in zs)

    def test_scaling_of_decision(self, corpus):
        for t in corpus[:40]:
            base = no_ruin_threshold(t)
            for k in (0.5, 2.0):
                scaled = no_ruin_threshold(scale_eta(t, k))
                assert scaled.decision.kind is base.decision.kind
                if base.decision.kind is DecisionKind.NO_RUIN_FROM:
                    assert scaled.decision.threshold == pytest.approx(
                        k * base.decision.threshold, rel=1e-10, abs=1e-10
                    )

    def test_finite_variation_bullet_specialization(self, rng):
        # For zero-Gaussian finite-variation drivers the decision must match
        # the explicit drift-vector classification (independent reimplementation).
        from gouruin.model import drift_vector
        from gouruin.regions import thetas as _thetas

        for _ in range(200):
            n = int(rng.integers(0, 5))
            lst = [
                (
                    0.0 if rng.random() < 0.2 else float(rng.uniform(-2, 2)),
                    0.0 if rng.random() < 0.2 else float(rng.uniform(-2, 2)),
                    float(rng.uniform(0.1, 1.5)),
                )
                for _ in range(n)
            ]
            lst = [(x, y, r) for x, y, r in lst if (x, y) != (0.0, 0.0)]
            t = triplet(
                (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))), jumps=lst
            )
            got = no_ruin_threshold(t)

            dx, dy = drift_vector(t)
            th = _thetas(t.jumps)
            # Quadrant mass with the measure-correct boundary convention:
            # an atom on the negative x-axis produces no downward jump at
            # level zero (its constraint is theta4 = 0), so only strictly
            # negative y blocks the whole nonnegative branch.
            a3 = sum(r for x, y, r in lst if x <= 0 and y < 0)
            ok = a3 == 0.0 and th.theta2 <= th.theta4
            expected = None
            if ok:
                if abs(dx) <= 1e-12 and dy >= -1e-12:
                    expected = th.theta2
                elif dx > 0 and -dy / dx <= th.theta4 + 1e-12:
                    expected = max(th.theta2, -dy / dx)
                elif dy >= -1e-12 and dx < 0 and -dy / dx >= th.theta2 - 1e-12:
                    expected = th.theta2
            if expected is None or expected > th.theta4 + 1e-12:
                assert got.decision.kind is DecisionKind.RUIN_EVERYWHERE, (lst, dx, dy)
            else:
                assert got.decision.kind is DecisionKind.NO_RUIN_FROM
                assert got.decision.threshold == pytest.approx(
                    expected, rel=1e-10, abs=1e-10
                )


class TestDelta:
    def test_continuous_example(self):
        t = continuous_example_triplet(0.2)
        assert delta(t, 3.0) == 1.0
        assert delta(t, 0.5) == NEG_INF

    def test_jump_example(self):
        t = jump_example_triplet(1.0, 1.0)
        assert delta(t, 1.8) == 1.8
        assert delta(t, 3.0) == pytest.approx(2.0, abs=1e-12)

    def test_subordinator_at_zero(self):
        t = triplet((0.0, 0.5), jumps=[(0.5, 0.3, 1.0)])
        assert delta(t, 0.0) == 0.0

    def test_nan_level_is_refused(self):
        # max(-inf, min(hi, nan)) would read as the top of the set
        t = jump_example_triplet(1.0, 1.0)
        with pytest.raises(InvalidModelError, match="level must be a number"):
            delta(t, math.nan)
        with pytest.raises(InvalidModelError):
            feasible_u_set(t).sup_at_most(math.nan)

    def test_infinite_levels(self):
        t = jump_example_triplet(1.0, 1.0)
        assert delta(t, math.inf) == pytest.approx(2.0, abs=1e-12)
        assert delta(t, -math.inf) == NEG_INF

    def test_laws_on_corpus(self, corpus):
        for t in corpus[:80]:
            feas = feasible_u_set(t)
            prev = NEG_INF
            for z in np.linspace(-3, 3, 13):
                d = feas.sup_at_most(float(z))
                assert d <= z + 1e-12
                assert d >= prev
                prev = d
                if d > NEG_INF:
                    assert feas.sup_at_most(d) == d


class TestSideConditions:
    def test_convergence_examples(self):
        drift_up = triplet((1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
        assert z_infinity_converges(drift_up) is Verdict.YES
        drift_down = triplet((-1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
        assert z_infinity_converges(drift_down) is Verdict.NO
        c, lam = 0.5, 2.0
        assert z_infinity_converges(jump_example_triplet(c, lam)) is Verdict.YES
        assert z_infinity_converges(jump_example_triplet(2.0, 1.0)) is Verdict.NO

    def test_stationarity_examples(self):
        up = triplet((1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
        assert is_stationary_possible(up) is Verdict.NO
        down = triplet((-1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
        assert is_stationary_possible(down) is Verdict.YES
        balanced = triplet((0.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
        assert is_stationary_possible(balanced) is Verdict.NO

    def test_degenerate_construction_recovers_k(self):
        # eta = -k W for xi = Brownian motion with drift, k = 2.
        k = 2.0
        xi = triplet((0.3, 0.0), ((1.0, 0.0), (0.0, 0.0)))
        pair_w = w_transform(xi)
        gw = pair_w.gamma_tilde[1]
        t = LevyTriplet2D(
            (0.3, -k * gw),
            ((1.0, k), (k, k * k)),
            FiniteAtomSet([]),
        )
        assert is_degenerate(t) == pytest.approx(k, rel=1e-12)

    def test_degenerate_with_jumps(self):
        # eta = -k W for a pure-jump xi: build the pair from the exact 1-d
        # marginals so the ball drifts match the rescaled jump geometry.
        from oracles import from_marginals

        k, x, rate = 1.5, 0.7, 0.8
        w = math.exp(-x) - 1.0
        xi_pair = triplet((0.2, 0.0), jumps=[(x, 0.0, rate)])
        m_xi = MarginalTriplet(0.2, 0.0, Atoms1D([(x, rate)]))
        g_w = marginal_eta(w_transform(xi_pair)).gamma
        m_eta = MarginalTriplet(-k * g_w, 0.0, Atoms1D([(-k * w, rate)]))
        t = from_marginals(m_xi, m_eta, 0.0, atoms((x, -k * w, rate)))
        assert is_degenerate(t) == pytest.approx(k, rel=1e-9)

    def test_independent_not_degenerate(self):
        t = triplet((0.1, 0.2), ((1.0, 0.0), (0.0, 1.0)))
        assert is_degenerate(t) is None
        t2 = triplet((0.1, 0.2), jumps=[(1.0, 1.0, 1.0), (0.5, -0.2, 1.0)])
        assert is_degenerate(t2) is None

    def test_pure_drift_ratio(self):
        # No Gaussian part and no jumps: eta = -k W with W drift -gamma_xi.
        assert is_degenerate(triplet((0.5, -1.0))) == -2.0


_ZERO_SIGMA = ((0.0, 0.0), (0.0, 0.0))


class TestDensityTierClassification:
    def _box_triplet(self, gamma, sigma, box, c=0.3):
        from gouruin.model import density_from_json

        dens = density_from_json(
            {"kind": "uniform_box", "params": {"c": c}, "box": list(box)}
        )
        return LevyTriplet2D(gamma, sigma, dens)

    # The uniform box c = 1 on [0.5, 1.5] x [-2, -0.5]: theta2 is
    # 2 / (1 - e^-0.5) = 5.082988, from the corner (0.5, -2).
    _THIN_BOX = (0.5, 1.5, -2.0, -0.5)

    @pytest.mark.parametrize("u0, kind", [
        (5.075, DecisionKind.RUIN_EVERYWHERE), (5.09, DecisionKind.NO_RUIN_FROM),
    ])
    def test_rigid_level_next_to_theta2(self, u0, kind):
        # At u0 = 5.075 the jump (0.5, -2) moves S(u0) by -0.0031, and so
        # does a corner triangle of mass 1.6e-6 that a quadrature over the
        # whole x-range of the box misses.
        t = self._box_triplet((0.3, 10.0), ((1.0, -u0), (-u0, u0 * u0)), self._THIN_BOX, c=1.0)
        r = no_ruin_threshold(t)
        assert r.decision.kind is kind
        if kind is DecisionKind.NO_RUIN_FROM:
            assert r.decision.threshold == pytest.approx(u0, abs=1e-12)
            assert r.certificate.negative_jumps_mass == 0.0
        else:
            assert r.certificate.failing_condition is FailedCondition.NEGATIVE_JUMPS
            delta_ = 2.0 - u0 * (1.0 - math.exp(-0.5))
            triangle = delta_ ** 2 / (2.0 * u0 * math.exp(-0.5))
            assert r.certificate.negative_jumps_mass == pytest.approx(triangle, rel=1e-3)

    def test_corner_clear_of_the_band_runs_no_negative_jump_quadrature(self, monkeypatch):
        from gouruin import classify

        def integrated(*args):
            pytest.fail("negative-jump mass integrated")

        monkeypatch.setattr(classify.Pushforward1D, "s_jumps", integrated)
        t = self._box_triplet((0.3, 10.0), ((0.0, 0.0), (0.0, 0.0)), self._THIN_BOX, c=1.0)
        for u in (5.09, 20.0):
            cert = is_subordinator_s(t, u)
            assert cert.negative_jumps_mass == 0.0 and cert.verdict is Verdict.YES

    def test_corner_negative_jump_test_matches_the_quadrature(self):
        # Near every finite nonzero threshold, the corner test of a named
        # family says S(u) has negative jumps exactly when the quadrature of
        # the same box as a Python density finds their mass above the
        # emptiness tolerance, and then both report that mass.
        from gouruin.classify import _s_negative_jump_mass
        from gouruin.model import density_from_json
        from gouruin.regions import mass_tol, thetas
        from oracles import FnBoxDensity

        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(100):
            box = [float(v) for v in np.sort(rng.uniform(-2.0, 2.0, 2))]
            box += [float(v) for v in np.sort(rng.uniform(-2.0, 2.0, 2))]
            if box[1] - box[0] < 0.3 or box[3] - box[2] < 0.3:
                continue
            dens = density_from_json({"kind": "uniform_box", "params": {"c": 1.0}, "box": box})
            plain = FnBoxDensity(dens.fn, dens.box)
            th = thetas(dens)
            for v in (th.theta1, th.theta2, th.theta3, th.theta4):
                if v == 0.0 or not math.isfinite(v):
                    continue
                for u in (v * (1.0 - 1e-2), v * (1.0 + 1e-2)):
                    corner = _s_negative_jump_mass(LevyTriplet2D((0, 0), _ZERO_SIGMA, dens), u)
                    quad = _s_negative_jump_mass(LevyTriplet2D((0, 0), _ZERO_SIGMA, plain), u)
                    assert (corner > 0.0) == (quad > mass_tol(dens)), (box, u)
                    if corner > 0.0:
                        assert corner == quad
                    checked += 1
        assert checked >= 90

    def test_cross_route_agreement_on_a_density_driver(self):
        # Negative-y jump mass away from the origin: both subordinator-test
        # routes must agree at levels below and above the critical window.
        t = self._box_triplet((0.1, 0.05), ((0.0, 0.0), (0.0, 0.0)), (0.8, 1.6, -1.2, -0.4))
        for u in (0.0, 4.0):
            v1 = is_subordinator_s(t, u).verdict
            v2 = is_subordinator_1d(s_process(t, u)).verdict
            assert v1 is v2
        assert is_subordinator_s(t, 0.0).verdict is Verdict.NO
        assert is_subordinator_s(t, 4.0).verdict is Verdict.YES

    @pytest.mark.parametrize("k, expected", [(0.5, 0.6), (2.0, 2.4)])
    @pytest.mark.parametrize("line", [False, True], ids=["box", "y_line"])
    def test_scaled_density_keeps_the_rigid_level(self, k, expected, line):
        sigma = ((1.0, -1.2), (-1.2, 1.44))
        if line:
            t = LevyTriplet2D((0.5, 1.5), sigma, LineDensity("y", lambda v: 1.0, 0.5, 1.5))
        else:
            t = self._box_triplet((0.5, 1.5), sigma, (0.2, 1.8, 0.3, 1.2))
        r = no_ruin_threshold(scale_eta(t, k))
        assert r.decision.kind is DecisionKind.NO_RUIN_FROM
        assert r.decision.threshold == pytest.approx(expected, abs=1e-12)

    def test_degeneracy_on_density_tier(self):
        # Rigid Gaussian part: k = s12 / s11 = -1.2 and S(1.2) has no Gaussian
        # part.  Shifting gamma_eta zeroes the drift of S(1.2), so only the
        # jump mass of S(1.2) (c * area = 0.432) tells it from eta = -k W.
        sigma = ((1.0, -1.2), (-1.2, 1.44))
        box = (0.2, 1.8, 0.3, 1.2)
        t = self._box_triplet((0.5, 1.5), sigma, box)
        assert is_degenerate(t) is None
        shifted = self._box_triplet((0.5, 1.5 - s_process(t, 1.2).gamma), sigma, box)
        s = s_process(shifted, 1.2)
        assert s.gamma == pytest.approx(0.0, abs=1e-12) and s.sigma2 == 0.0
        assert s.jumps.mass(0.0, math.inf) == pytest.approx(0.432, rel=1e-7)
        assert is_degenerate(shifted) is None

    def test_point_candidate_decision_on_density_tier(self):
        # Rigid Gaussian pins the candidate level; the quadrature tier only
        # has to decide the jump and drift conditions at that one point.
        u0 = 1.2
        sigma = ((1.0, -u0), (-u0, u0 * u0))
        t = self._box_triplet((0.5, 1.0), sigma, (1.1, 1.8, 0.5, 1.2))
        r = no_ruin_threshold(t)
        assert r.decision.kind is DecisionKind.NO_RUIN_FROM
        assert r.decision.threshold == pytest.approx(u0, abs=1e-12)

    def test_rigid_level_is_certified_once(self, monkeypatch):
        # The feasible-set step certifies the one rigid level; the decision
        # reuses that certificate and the rigid branch needs no thetas.
        from gouruin import classify

        u0 = 1.2
        sigma = ((1.0, -u0), (-u0, u0 * u0))
        t = self._box_triplet((0.5, 1.0), sigma, (1.1, 1.8, 0.5, 1.2))
        expected = is_subordinator_s(t, u0)
        calls = {"cert": 0, "thetas": 0}
        certify, thetas = classify.is_subordinator_s, classify.thetas

        def counted_cert(*args):
            calls["cert"] += 1
            return certify(*args)

        def counted_thetas(*args):
            calls["thetas"] += 1
            return thetas(*args)

        monkeypatch.setattr(classify, "is_subordinator_s", counted_cert)
        monkeypatch.setattr(classify, "thetas", counted_thetas)
        r = no_ruin_threshold(t)
        assert calls == {"cert": 1, "thetas": 1}
        assert r.certificate == expected
        assert r.drift_piecewise is None
        calls["thetas"] = 0
        assert feasible_u_set(t).intervals == r.feasible_u.intervals
        assert calls["thetas"] == 0

    def test_undetermined_certificate_carries_the_residual(self, monkeypatch):
        # An unresolved quadrature at the rigid level: the certificates and
        # the report carry its error bound, not just its message.  A named
        # family decides its negative jumps from the box corners, so the
        # first quadrature is the drift integral's.  The box lies inside
        # the unit disk and above the line y = -u x, so that integral is one
        # quadrature: the strip pieces where a region is empty run none.
        import json
        from importlib import resources

        import jsonschema

        from scipy import integrate

        from gouruin.model import density_from_json

        u0 = 1.2
        sigma = ((1.0, -u0), (-u0, u0 * u0))
        dens = density_from_json({"kind": "uniform_box", "params": {"c": 0.3},
                                  "box": [0.55, 0.8, 0.1, 0.5]})
        t = LevyTriplet2D((0.5, 1.0), sigma, dens)
        s_marginal = s_process(t, u0)

        def unresolved(*args, **kwargs):
            return 0.0, 0.25  # (value, error estimate) far above any tolerance

        monkeypatch.setattr(integrate, "nquad", unresolved)
        monkeypatch.setattr(integrate, "quad", unresolved)
        cert = is_subordinator_s(t, u0)
        assert cert.verdict is Verdict.UNDETERMINED
        assert cert.residual == 0.25 and cert.to_json()["residual"] == 0.25
        assert is_subordinator_1d(s_marginal).residual == 0.25
        r = no_ruin_threshold(t)
        assert r.decision.kind is DecisionKind.UNDETERMINED
        assert r.residual == 0.25
        doc = r.to_json()
        schema = resources.files("gouruin.schemas").joinpath("ruin_report.schema.json")
        jsonschema.validate(doc, json.loads(schema.read_text()))
        assert doc["residual"] == doc["certificate"]["residual"] == 0.25

    def test_continuum_of_levels_is_refused_on_density_tier(self, monkeypatch):
        # A zero Gaussian part leaves a continuum of levels to the drift
        # condition: the density tier refuses it before computing any theta.
        from scipy import integrate

        from gouruin import classify
        from gouruin.errors import UndeterminedError

        t = self._box_triplet((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), (1.1, 1.8, 0.5, 1.2))
        calls = {"thetas": 0, "quad": 0, "nquad": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(classify, "thetas", counted("thetas", classify.thetas))
        for name in ("quad", "nquad"):
            monkeypatch.setattr(integrate, name, counted(name, getattr(integrate, name)))
        with pytest.raises(UndeterminedError, match="continuum of levels"):
            feasible_u_set(t)
        r = no_ruin_threshold(t)
        assert r.decision.kind is DecisionKind.UNDETERMINED
        assert r.warnings == ("drift feasibility over a continuum of levels needs the atom tier",)
        assert calls == {"thetas": 0, "quad": 0, "nquad": 0}
