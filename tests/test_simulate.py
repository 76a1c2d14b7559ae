"""Path simulation: jump-adapted Euler, the exact event-driven engine, the
stochastic-exponential validation, and CSV export."""

import io
import math

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from gouruin.errors import NotSupportedError
from gouruin.model import BoxDensity, FiniteAtomSet, JumpAtom, LevyTriplet2D
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from gouruin.simulate import (
    PathConfig,
    _arrival_times,
    _fv_events,
    brownian_part,
    closed_form_continuous_example,
    compute_V,
    compute_Z,
    exact_fv_path,
    first_passage,
    fv_first_passage,
    path_rng,
    simulate_pair,
    simulate_stochastic_exponential,
    write_path_csv,
)

E = math.e


def atoms(*tuples):
    return FiniteAtomSet([JumpAtom(x, y, r) for x, y, r in tuples])


def triplet(gamma=(0.0, 0.0), sigma=((0.0, 0.0), (0.0, 0.0)), jumps=()):
    return LevyTriplet2D(gamma, sigma, atoms(*jumps))


def scalar_arrival_times(rng, rate, horizon):
    """Reference clock loop: one scalar sum per gap, same block layout."""
    if rate <= 0.0:
        return np.empty(0)
    out = []
    clock = 0.0
    budget = max(16, int(rate * horizon * 1.5) + 16)
    while True:
        gaps = rng.exponential(scale=1.0 / rate, size=budget)
        for g in gaps:
            clock += g
            if clock > horizon:
                return np.array(out)
            out.append(clock)


class ConstantGaps:
    """Generator stub whose exponential gaps all equal ``gap``, so a block
    can run out before the horizon does."""

    def __init__(self, gap):
        self.gap = gap
        self.blocks = 0

    def exponential(self, scale, size):
        self.blocks += 1
        return np.full(size, self.gap)


class TestArrivalTimes:
    @pytest.mark.parametrize(
        "rate,horizon,seed",
        [(0.0, 10.0, 1), (1e-3, 0.5, 2), (1.0, 1000.0, 3), (2.5, 3.0, 4), (40.0, 7.3, 5)],
    )
    def test_matches_the_scalar_loop_bitwise(self, rate, horizon, seed):
        rng, ref_rng = path_rng(seed, 0), path_rng(seed, 0)
        got = _arrival_times(rng, rate, horizon)
        ref = scalar_arrival_times(ref_rng, rate, horizon)
        assert got.dtype == ref.dtype == np.float64
        assert np.array_equal(got, ref)
        if rate < 1e-2:
            assert got.size == 0
        # the same number of draws was consumed
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "gap,rate,horizon", [(0.01, 1.0, 1.0), (1.0 / 16.0, 1e-9, 1.0), (0.3, 2.0, 100.0)]
    )
    def test_blocks_past_the_first_match_the_scalar_loop(self, gap, rate, horizon):
        # (1/16, 1e-9, 1.0): the first 16-gap block ends exactly at the
        # horizon, so a second block is drawn and its first clock dropped.
        stub, ref_stub = ConstantGaps(gap), ConstantGaps(gap)
        got = _arrival_times(stub, rate, horizon)
        ref = scalar_arrival_times(ref_stub, rate, horizon)
        assert np.array_equal(got, ref)
        assert stub.blocks == ref_stub.blocks >= 2
        assert got[-1] <= horizon < got[-1] + gap

    def test_event_types_match_the_per_arrival_lookup(self):
        t = triplet((0.4, 0.2), jumps=[(0.3, -0.5, 1.0), (-0.2, 0.4, 0.5), (0.1, -1.5, 0.3)])
        table = t.jumps.atoms_or_none()
        rates = np.array([a.rate for a in table])
        seen = set()
        for i in range(5):
            tau, jx, jy = _fv_events(t, 30.0, path_rng(8, i))
            rng = path_rng(8, i)
            ref_tau = scalar_arrival_times(rng, rates.sum(), 30.0)
            kinds = rng.choice(len(table), size=len(ref_tau), p=rates / rates.sum())
            assert np.array_equal(tau, ref_tau)
            assert np.array_equal(jx, np.array([table[k].x for k in kinds]))
            assert np.array_equal(jy, np.array([table[k].y for k in kinds]))
            seen.update(kinds.tolist())
        assert seen == {0, 1, 2}


class TestSimulatePair:
    def test_zero_triplet_constant_path(self):
        p = simulate_pair(triplet(), PathConfig(1.0, 0.25, 3))
        assert np.all(p.xi == 0.0) and np.all(p.eta == 0.0)
        assert p.n_jumps() == 0

    def test_pure_drift_exact(self):
        p = simulate_pair(triplet((0.7, -1.2)), PathConfig(2.0, 0.5, 3))
        assert np.allclose(p.xi, 0.7 * p.times, rtol=0, atol=0)
        assert np.allclose(p.eta, -1.2 * p.times, rtol=0, atol=0)

    def test_determinism_bit_identical(self):
        t = jump_example_triplet(1.0, 2.0)
        cfg = PathConfig(5.0, 0.1, 42)
        p1 = simulate_pair(t, cfg, path_index=7)
        p2 = simulate_pair(t, cfg, path_index=7)
        assert np.array_equal(p1.times, p2.times)
        assert np.array_equal(p1.xi, p2.xi)
        assert np.array_equal(p1.eta, p2.eta)
        p3 = simulate_pair(t, cfg, path_index=8)
        assert not np.array_equal(p1.times, p3.times)

    def test_density_driver_needs_a_truncation_cutoff(self):
        t = LevyTriplet2D(
            (0.3, 0.1), ((0.0, 0.0), (0.0, 0.0)),
            BoxDensity(lambda x, y: 0.3, (0.5, 1.5, -1.5, 0.5)),
        )
        with pytest.raises(NotSupportedError):
            simulate_pair(t, PathConfig(1.0, 0.1, 3))
        p = simulate_pair(t, PathConfig(5.0, 0.05, 3, truncation_eps=0.3))
        assert p.n_jumps() > 0

    def test_jump_counts_follow_the_poisson_law(self):
        lam, T = 2.0, 1.0
        t = jump_example_triplet(1.0, lam)
        counts = np.array(
            [
                simulate_pair(t, PathConfig(T, 0.5, 11), path_index=i).n_jumps()
                for i in range(10_000)
            ]
        )
        kmax = 10
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        pmf = stats.poisson.pmf(np.arange(kmax), lam * T)
        probs = np.append(pmf, 1.0 - pmf.sum())
        chi2 = stats.chisquare(observed, probs * len(counts))
        assert chi2.pvalue > 1e-3

    def test_jump_instants_carry_left_limits(self):
        t = jump_example_triplet(1.0, 3.0)
        p = simulate_pair(t, PathConfig(2.0, 0.25, 5))
        idx = np.nonzero(p.jump_flags)[0]
        assert len(idx) > 0
        assert np.allclose(p.xi[idx] - p.xi_left[idx], 1.0)
        assert np.allclose(p.eta[idx] - p.eta_left[idx], -1.0)
        non = ~p.jump_flags
        assert np.array_equal(p.xi[non], p.xi_left[non])


class TestComputeZ:
    def test_pure_drift_integral(self):
        p = simulate_pair(triplet((0.0, 1.5)), PathConfig(2.0, 0.25, 1))
        assert np.allclose(compute_Z(p), 1.5 * p.times, atol=1e-14)

    def test_single_jump_with_flat_xi(self):
        t = triplet(jumps=[(0.0, 2.5, 0.8)])
        p = simulate_pair(t, PathConfig(3.0, 0.5, 9))
        Z = compute_Z(p)
        assert np.allclose(Z, np.cumsum(np.concatenate([[0.0], np.diff(p.eta)])))

    def test_converges_to_closed_form(self):
        c = 0.2
        t = continuous_example_triplet(c)
        errs = []
        for h in (2.0**-4, 2.0**-8):
            per_path = []
            for i in range(64):
                p = simulate_pair(t, PathConfig(1.0, h, 17), path_index=i)
                Z = compute_Z(p)
                Zex = closed_form_continuous_example(c, brownian_part(p), p.times)
                per_path.append(abs(Z[-1] - Zex[-1]))
            errs.append(np.mean(per_path))
        assert errs[1] < 0.5 * errs[0]

    def test_pathwise_identity_and_jump_relation(self):
        t = LevyTriplet2D(
            (0.1, -0.2),
            ((0.5, -0.3), (-0.3, 0.4)),
            atoms((1.0, -1.0, 1.0), (-0.4, 0.6, 2.0)),
        )
        p = simulate_pair(t, PathConfig(3.0, 0.05, 23))
        Z = compute_Z(p)
        z0 = 1.3
        V = compute_V(p, z0, Z)
        ident = np.exp(p.xi) * (z0 + Z)
        assert np.allclose(V, ident, rtol=1e-9)
        # jump identity dV = (e^dxi - 1) V- + e^dxi deta at every jump index
        idx = np.nonzero(p.jump_flags)[0]
        assert len(idx) >= 2
        V_left = np.exp(p.xi_left) * (
            z0 + Z - np.exp(-p.xi_left) * (p.eta - p.eta_left)
        )
        dxi = p.xi[idx] - p.xi_left[idx]
        deta = p.eta[idx] - p.eta_left[idx]
        dv_expected = np.expm1(dxi) * V_left[idx] + np.exp(dxi) * deta
        assert np.allclose(V[idx] - V_left[idx], dv_expected, rtol=1e-9, atol=1e-12)


class TestFirstPassage:
    def test_no_hit_for_large_start(self):
        t = triplet((0.0, 1.0), jumps=[(0.0, 0.5, 1.0)])
        p = simulate_pair(t, PathConfig(5.0, 0.1, 2))
        assert not first_passage(p, 10.0).hit

    def test_continuous_example_stays_at_one(self):
        # From the fixed point the path value is identically one in the
        # continuum; the discretized path stays within Euler error of it.
        t = continuous_example_triplet(0.4)
        p = simulate_pair(t, PathConfig(1.0, 2.0**-10, 31))
        V = compute_V(p, 1.0)
        assert float(np.max(np.abs(V - 1.0))) < 0.15
        assert not first_passage(p, 1.0).hit

    def test_overshoot_is_tagged_as_jump_crossing(self):
        t = triplet((0.0, 0.0), jumps=[(0.0, -1.0, 4.0)])
        p = simulate_pair(t, PathConfig(5.0, 0.1, 8))
        fp = first_passage(p, 0.5)
        assert fp.hit and not fp.continuous_crossing
        assert fp.v_at_hit < 0.0


class TestExactEventDriven:
    def test_no_arrival_segment_matches_quadrature(self):
        c, z = 0.8, 0.3
        t = jump_example_triplet(c, 1.0)
        T = 0.9

        def integrand(s):
            return math.exp(c * s) * 2.0 * c

        quad, _ = sci.quad(integrand, 0.0, T)
        v_expected = math.exp(-c * T) * (z + quad)
        closed = math.exp(-c * T) * z + 2.0 * (1.0 - math.exp(-c * T))
        assert v_expected == pytest.approx(closed, rel=1e-10)
        # find a path with no arrivals on [0, T]
        for i in range(50):
            p = exact_fv_path(t, PathConfig(T, 0.1, 77), path_index=i)
            if p.n_jumps() == 0:
                V = compute_V(p, z, compute_Z(p))
                assert V[-1] == pytest.approx(closed, rel=1e-12)
                return
        pytest.fail("no arrival-free path found")

    def test_threshold_invariant_no_ruin(self):
        t = jump_example_triplet(1.0, 1.0)
        z = E / (E - 1.0)
        for i in range(200):
            rng = path_rng(404, i)
            assert not fv_first_passage(t, z, 50.0, rng).hit

    def test_jump_relation_from_zero_start(self):
        # V jumps by (e - 1) V- - e at an arrival of the preset driver.
        t = jump_example_triplet(1.0, 1.0)
        for i in range(50):
            p = exact_fv_path(t, PathConfig(2.0, 0.05, 15), path_index=i)
            idx = np.nonzero(p.jump_flags)[0]
            if not len(idx):
                continue
            Z = compute_Z(p)
            V = compute_V(p, 0.0, Z)
            k = idx[0]
            v_left = math.exp(p.xi_left[k]) * (
                0.0 + Z[k] - math.exp(-p.xi_left[k]) * (p.eta[k] - p.eta_left[k])
            )
            assert V[k] - v_left == pytest.approx((E - 1.0) * v_left - E, rel=1e-9)
            return
        pytest.fail("no path with an arrival found")

    def test_exact_and_grid_engines_agree_in_distribution(self):
        # Same seed gives the same arrivals, so pathwise values agree up to
        # Euler error, which is zero here (piecewise-linear drivers).
        t = jump_example_triplet(0.7, 1.3)
        cfg = PathConfig(3.0, 0.01, 52)
        pe = exact_fv_path(t, cfg, path_index=4)
        pg = simulate_pair(t, cfg, path_index=4)
        assert np.array_equal(pe.times, pg.times)
        assert np.allclose(pe.xi, pg.xi, atol=1e-12)
        assert np.allclose(pe.eta, pg.eta, atol=1e-12)

    def test_continuous_crossing_time_is_exact(self):
        # Pure downward drift in eta: V(t) = z - t crosses at exactly z.
        t = triplet((0.0, -1.0))
        rng = path_rng(1, 0)
        fp = fv_first_passage(t, 0.25, 10.0, rng)
        assert fp.hit and fp.continuous_crossing
        assert fp.time == pytest.approx(0.25, rel=1e-12)
        assert fp.v_at_hit == 0.0

    def test_exact_path_of_the_preset(self):
        p = exact_fv_path(jump_example_triplet(1.0, 1.0), PathConfig(1.0, 0.25, 6))
        assert p.exact
        assert p.drift == (-1.0, 2.0)


class TestStochasticExponential:
    def test_pure_drift(self):
        t = triplet((0.9, 0.0))
        p = simulate_pair(t, PathConfig(2.0, 0.25, 1))
        eps = simulate_stochastic_exponential(t, p)
        assert np.allclose(eps, np.exp(-0.9 * p.times), rtol=1e-12)

    def test_brownian(self):
        t = triplet((0.0, 0.0), ((1.0, 0.0), (0.0, 0.0)))
        p = simulate_pair(t, PathConfig(1.0, 0.01, 19))
        eps = simulate_stochastic_exponential(t, p)
        assert np.allclose(eps, np.exp(-p.xi), rtol=1e-10)

    def test_single_jump_product_factor(self):
        t = triplet(jumps=[(1.0, 0.0, 0.7)])
        p = simulate_pair(t, PathConfig(4.0, 0.5, 12))
        eps = simulate_stochastic_exponential(t, p)
        assert np.allclose(eps, np.exp(-p.xi), rtol=1e-12)

    def test_mixed_driver_invariant(self, rng):
        # max |e^-xi - stochexp(W)| <= 1e-8 for drivers with few jumps
        for seed in range(5):
            t = LevyTriplet2D(
                (float(rng.uniform(-1, 1)), 0.0),
                ((float(rng.uniform(0.1, 1.5)), 0.0), (0.0, 0.0)),
                atoms((float(rng.uniform(-1.5, 1.5)), 0.0, 1.0)),
            )
            p = simulate_pair(t, PathConfig(2.0, 0.05, 100 + seed))
            if p.n_jumps() > 10:
                continue
            eps = simulate_stochastic_exponential(t, p)
            assert float(np.max(np.abs(np.exp(-p.xi) - eps))) <= 1e-8


class TestClosedForm:
    def test_zero_brownian_zero_drift(self):
        times = np.linspace(0, 1, 5)
        assert np.all(closed_form_continuous_example(0.0, np.zeros(5), times) == 0.0)

    def test_always_above_minus_one(self, rng):
        times = np.linspace(0, 10, 1001)
        for _ in range(20):
            b = np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.1, 1000))])
            assert np.all(closed_form_continuous_example(0.3, b, times) > -1.0)

    def test_plug_in_value(self):
        times = np.array([0.0, 1.0])
        b = np.array([0.0, -math.log(2.0) - 0.5])
        z = closed_form_continuous_example(0.5, b, times)
        assert z[-1] == pytest.approx(1.0, rel=1e-14)


class TestCsvExport:
    def test_header_and_row_identity(self):
        t = jump_example_triplet(1.0, 1.0)
        p = exact_fv_path(t, PathConfig(1.0, 0.25, 3))
        buf = io.StringIO()
        write_path_csv(p, 0.7, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "time,xi,eta,Z,V,jump"
        for row in lines[1:]:
            tt, xi, eta, Z, V, jflag = row.split(",")
            assert float(V) == pytest.approx(
                math.exp(float(xi)) * (0.7 + float(Z)), rel=1e-9, abs=1e-12
            )
