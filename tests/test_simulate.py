"""Path simulation: jump-adapted Euler, the exact event-driven engine, the
stochastic-exponential validation, and CSV export."""

import io
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from gouruin.errors import NotSupportedError
from gouruin.estimate import _fv_batch, _mixed_batch
from gouruin.model import (
    BoxDensity,
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    _uncompensated_drift,
    density_from_json,
)
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from gouruin.simulate import (
    FirstPassage,
    Path,
    PathConfig,
    _arrival_times,
    _chol2x2,
    _density_jump_table,
    _fv_events,
    _fv_state_arrays,
    _pair_chunk,
    _pair_jumps,
    _segment_crossing_time,
    _truncated_density_jumps,
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


# ---------------------------------------------------------------------------
# Per-path references: the one-path builders and reducers that the chunk
# builders replaced, kept as oracles.  A chunk row must equal its path built
# alone, bit for bit.
# ---------------------------------------------------------------------------


def same(a, b) -> bool:
    """Bitwise equal floats (signed zeros included), up to NaN payloads."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def ref_segment_z_increment(xi0, dt, bx, by):
    with np.errstate(over="ignore", under="ignore"):
        disc = np.exp(-xi0)
        if abs(bx) < 1e-300:
            return by * disc * dt
        return (by / bx) * disc * -np.expm1(-bx * dt)


def ref_inf_past_overflow(Z):
    return np.where(np.isfinite(Z), Z, np.inf)


@dataclass
class RefExactPath:
    tau: np.ndarray
    bx: float
    by: float
    xi_pre: np.ndarray
    xi_post: np.ndarray
    z_pre: np.ndarray
    z_post: np.ndarray
    z_T: float
    xi_T: float

    def keep_finite_prefix(self):
        self.z_pre = ref_inf_past_overflow(self.z_pre)
        self.z_post = ref_inf_past_overflow(self.z_post)
        self.z_T = math.inf

    def _start(self, k):
        if k:
            return self.tau[k - 1], self.xi_post[k - 1], self.z_post[k - 1]
        return 0.0, 0.0, 0.0

    def z_at(self, time):
        base_t, base_xi, base_z = self._start(int(np.searchsorted(self.tau, time)))
        return base_z + ref_segment_z_increment(
            np.array([base_xi]), np.array([time - base_t]), self.bx, self.by
        )[0]

    def passage(self, z, want_time=True):
        pre_hit = z + self.z_pre < 0.0
        hits = pre_hit | (z + self.z_post < 0.0)
        if hits.any():
            k = int(np.argmax(hits))
            if not pre_hit[k]:
                v_hit = math.exp(self.xi_post[k]) * (z + self.z_post[k])
                return FirstPassage(True, float(self.tau[k]), v_hit, continuous_crossing=False)
        elif z + self.z_T < 0.0:
            k = len(self.tau)
        else:
            return FirstPassage(False)
        t_cross = math.nan
        if want_time:
            start, xi0, z0 = self._start(k)
            t_cross = start + _segment_crossing_time(math.exp(xi0) * (z + z0), self.bx, self.by)
        return FirstPassage(True, t_cross, 0.0, continuous_crossing=True)

    def lowest(self, z):
        try:
            low = math.exp(self.xi_T) * (z + self.z_T)
        except OverflowError:
            low = math.copysign(math.inf, z + self.z_T)
        if len(self.tau):
            with np.errstate(over="ignore"):
                low = min(low, float(np.min(np.exp(self.xi_pre) * (z + self.z_pre))),
                          float(np.min(np.exp(self.xi_post) * (z + self.z_post))))
        return low


def ref_fv_state_arrays(t, tau, jx, jy, horizon):
    bx, by = _uncompensated_drift(t)
    xi_pre = bx * tau + np.concatenate([[0.0], np.cumsum(jx)[:-1]])
    xi_post = xi_pre + jx
    seg_start_xi = np.concatenate([[0.0], xi_post])
    seg_dt = np.diff(np.concatenate([[0.0], tau, [horizon]]))
    seg_inc = ref_segment_z_increment(seg_start_xi, seg_dt, bx, by)
    with np.errstate(over="ignore"):
        jump_inc = np.exp(-xi_pre) * jy
    z_pre = np.cumsum(seg_inc[:-1]) + np.concatenate([[0.0], np.cumsum(jump_inc)[:-1]])
    z_post = z_pre + jump_inc
    z_final = (z_post[-1] if len(tau) else 0.0) + seg_inc[-1]
    xi_final = (xi_post[-1] if len(tau) else 0.0) + bx * seg_dt[-1]
    return RefExactPath(tau, bx, by, xi_pre, xi_post, z_pre, z_post, z_final, xi_final)


def ref_simulate_pair_with_rng(t, cfg, rng, jump_table):
    atoms = t.jumps.atoms_or_none()
    if atoms is None:
        jump_times, jump_sizes = _truncated_density_jumps(jump_table, rng, cfg.horizon)
        bx = t.gamma_tilde[0] - jump_table.comp[0]
        by = t.gamma_tilde[1] - jump_table.comp[1]
    else:
        bx, by = _uncompensated_drift(t)
        times_list = []
        sizes_list = []
        for a in atoms:
            arr = _arrival_times(rng, a.rate, cfg.horizon)
            times_list.append(arr)
            sizes_list.append(np.tile([a.x, a.y], (len(arr), 1)))
        if times_list:
            jump_times = np.concatenate(times_list)
            jump_sizes = (
                np.concatenate(sizes_list) if jump_times.size else np.empty((0, 2))
            )
            order = np.argsort(jump_times, kind="stable")
            jump_times = jump_times[order]
            jump_sizes = jump_sizes[order]
        else:
            jump_times = np.empty(0)
            jump_sizes = np.empty((0, 2))

    n_steps = int(math.ceil(cfg.horizon / cfg.step - 1e-9))
    grid = np.minimum(np.arange(n_steps + 1) * cfg.step, cfg.horizon)
    grid[-1] = cfg.horizon
    times = np.union1d(grid, jump_times)
    jump_x = np.zeros(len(times))
    jump_y = np.zeros(len(times))
    flags = np.zeros(len(times), dtype=bool)
    if len(jump_times):
        idx = np.searchsorted(times, jump_times)
        np.add.at(jump_x, idx, jump_sizes[:, 0])
        np.add.at(jump_y, idx, jump_sizes[:, 1])
        flags[idx] = True
    dt = np.diff(times)
    l11, l21, l22 = _chol2x2(t.sigma)
    chol = np.array([[l11, 0.0], [l21, l22]])
    zmat = rng.standard_normal((len(dt), 2))
    binc = (zmat @ chol.T) * np.sqrt(dt)[:, None]
    bx_path = np.concatenate([[0.0], np.cumsum(binc[:, 0])])
    by_path = np.concatenate([[0.0], np.cumsum(binc[:, 1])])
    xi_left = bx * times + bx_path + np.concatenate([[0.0], np.cumsum(jump_x)[:-1]])
    eta_left = by * times + by_path + np.concatenate([[0.0], np.cumsum(jump_y)[:-1]])
    return Path(times, xi_left + jump_x, eta_left + jump_y, xi_left, eta_left, flags, (bx, by))


def ref_compute_Z(p):
    with np.errstate(over="ignore"):
        if p.exact:
            cont = ref_segment_z_increment(p.xi[:-1], np.diff(p.times), *p.drift)
        else:
            cont = np.exp(-p.xi[:-1]) * (p.eta_left[1:] - p.eta[:-1])
        jump = np.exp(-p.xi_left[1:]) * (p.eta[1:] - p.eta_left[1:])
    return np.concatenate([[0.0], np.cumsum(cont + jump)])


class RefEulerPath:
    def __init__(self, t, cfg, jump_table, rng):
        self.p = ref_simulate_pair_with_rng(t, cfg, rng, jump_table)
        self.Z = ref_compute_Z(self.p)
        self.z_T, self.xi_T = self.Z[-1], self.p.xi[-1]

    def keep_finite_prefix(self):
        self.Z = ref_inf_past_overflow(self.Z)

    def z_at(self, time):
        return self.Z[np.searchsorted(self.p.times, time)]

    def passage(self, z, want_time):
        with np.errstate(over="ignore"):
            V = np.exp(self.p.xi) * (z + self.Z)
        below = V < 0.0
        if not below.any():
            return FirstPassage(False)
        k = int(np.argmax(below))
        return FirstPassage(True, float(self.p.times[k]), float(V[k]),
                            not bool(self.p.jump_flags[k]))

    def lowest(self, z):
        with np.errstate(over="ignore"):
            return float(np.min(np.exp(self.p.xi) * (z + self.Z)))


def ref_batch(simulate, z_list, horizon, n, seed, want_times=False, min_at=None):
    """The per-path loop: ``simulate(rng)`` builds one reference path."""
    levels = sorted(set(z_list))
    out = {
        "hit": np.zeros((len(levels), n), dtype=bool),
        "v_hit": np.full((len(levels), n), math.nan),
        "continuous": np.zeros((len(levels), n), dtype=bool),
        "time": np.full((len(levels), n), math.nan),
        "z_T": np.empty(n), "z_half": np.full(n, math.nan), "v_min": np.full(n, math.nan),
        "nonfinite": 0,
    }
    for i in range(n):
        path = simulate(path_rng(seed, i, 0))
        out["z_T"][i] = path.z_T
        if not levels and min_at is None:
            out["z_half"][i] = path.z_at(0.5 * horizon)
        finite = math.isfinite(path.z_T) and math.isfinite(path.xi_T)
        if not finite:
            path.keep_finite_prefix()
        for k, z in enumerate(levels):
            fp = path.passage(z, want_times)
            if fp.hit:
                out["hit"][k, i] = True
                out["v_hit"][k, i] = fp.v_at_hit
                out["continuous"][k, i] = fp.continuous_crossing
                if want_times:
                    out["time"][k, i] = fp.time
        if min_at is not None:
            out["v_min"][i] = path.lowest(min_at)
        if not finite:
            out["nonfinite"] += min_at is not None or not out["hit"][:, i].all()
    return out


def assert_batch_matches(batch, ref, z_list, want_times=False, min_at=None):
    levels = sorted(set(z_list))
    for k, z in enumerate(levels):
        assert np.array_equal(batch.hit[z], ref["hit"][k])
        assert np.array_equal(batch.continuous[z], ref["continuous"][k])
        assert same(batch.v_hit[z], ref["v_hit"][k])
        if want_times:
            assert same(batch.time[z], ref["time"][k])
    assert same(batch.z_T, ref["z_T"])
    if not levels and min_at is None:
        assert same(batch.z_half, ref["z_half"])
    if min_at is not None:
        assert same(batch.v_min, ref["v_min"])
    assert batch.nonfinite == ref["nonfinite"]


class StubGaps:
    """Generator stub: call k of ``exponential`` gives constant gaps
    ``gaps[k]``, so arrivals land where a test wants them; normals come from
    a real generator."""

    def __init__(self, gaps, seed):
        self.gaps = list(gaps)
        self.normals = np.random.default_rng(seed)

    def exponential(self, scale, size):
        return np.full(size, self.gaps.pop(0))

    def standard_normal(self, size=None, out=None):
        return self.normals.standard_normal(size, out=out)


MIXED = LevyTriplet2D(
    (0.5, 0.3), ((0.25, 0.1), (0.1, 0.5)), atoms((0.3, -0.5, 1.0), (-0.2, 0.4, 0.5))
)
FV = triplet((0.4, 0.2), jumps=[(0.3, -0.5, 1.0), (-0.2, 0.4, 0.5), (0.1, -1.5, 0.3)])


class TestChunkBuildersMatchThePerPathReference:
    def test_exact_rows_with_zero_one_and_many_arrivals(self):
        horizon = 30.0
        events = [_fv_events(FV, horizon, path_rng(3, i)) for i in range(4)]
        events.insert(1, (np.empty(0), np.empty(0), np.empty(0)))
        events.insert(3, (np.array([12.5]), np.array([0.3]), np.array([-0.5])))
        chunk = _fv_state_arrays(FV, events, horizon)
        assert sorted(chunk.n)[:2] == [0, 1] and chunk.n.max() > 20
        for r, e in enumerate(events):
            ref, k = ref_fv_state_arrays(FV, *e, horizon), len(e[0])
            assert chunk.n[r] == k
            for name in ("tau", "xi_pre", "xi_post", "z_pre", "z_post"):
                assert same(getattr(chunk, name)[r, :k], getattr(ref, name)), name
            assert same(chunk.z_T[r], ref.z_T) and same(chunk.xi_T[r], ref.xi_T)
            assert same(chunk.z_at(0.5 * horizon)[r], ref.z_at(0.5 * horizon))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_pair_rows_of_a_ragged_chunk(self, seed):
        cfg = PathConfig(3.0, 0.1, seed)
        draws = []
        for i in range(5):
            rng = path_rng(seed, i)
            draws.append((rng, *_pair_jumps(MIXED, None, rng, cfg.horizon)))
        chunk, lengths = _pair_chunk(MIXED, cfg, None, draws)
        Z = compute_Z(chunk)
        assert len(set(lengths.tolist())) > 1  # ragged
        for r in range(5):
            ref = ref_simulate_pair_with_rng(MIXED, cfg, path_rng(seed, r), None)
            row = chunk.row(r, lengths[r])
            for name in ("times", "xi", "eta", "xi_left", "eta_left"):
                assert same(getattr(row, name), getattr(ref, name)), name
            assert np.array_equal(row.jump_flags, ref.jump_flags)
            assert same(Z[r, :lengths[r]], ref_compute_Z(ref))

    def test_jumps_at_grid_instants_and_at_one_instant(self):
        # Step 0.25: gaps of 0.5 and 0.25 land on grid instants, two atoms
        # with one gap share every instant, and gaps of 0.3 fall between.
        t = LevyTriplet2D(
            (0.1, -0.2), ((0.3, 0.0), (0.0, 0.2)),
            atoms((0.2, -0.4, 1.0), (-0.1, 0.3, 1.0), (0.05, 0.5, 1.0)),
        )
        cfg = PathConfig(2.0, 0.25, 1)
        gaps = [(0.5, 0.5, 0.3), (0.25, 0.7, 0.5)]
        draws = []
        for r, g in enumerate(gaps):
            rng = StubGaps(g, r)
            draws.append((rng, *_pair_jumps(t, None, rng, cfg.horizon)))
        chunk, lengths = _pair_chunk(t, cfg, None, draws)
        # row 0 adds 0.3 k for k <= 6 but 1.5, a grid instant; row 1 adds 0.7, 1.4
        assert lengths.tolist() == [9 + 5, 9 + 2]
        for r, g in enumerate(gaps):
            ref = ref_simulate_pair_with_rng(t, cfg, StubGaps(g, r), None)
            row = chunk.row(r, lengths[r])
            for name in ("times", "xi", "eta", "xi_left", "eta_left"):
                assert same(getattr(row, name), getattr(ref, name)), name
            assert np.array_equal(row.jump_flags, ref.jump_flags)
        shared = np.flatnonzero(chunk.times[0] == 1.0)[0]
        assert chunk.jump_flags[0, shared]
        assert chunk.xi[0, shared] - chunk.xi_left[0, shared] == pytest.approx(0.1)

    def test_density_driver_draws_from_the_jump_table(self):
        t = LevyTriplet2D(
            (0.3, 0.1), ((0.2, 0.0), (0.0, 0.1)),
            density_from_json({"kind": "uniform_box", "params": {"c": 3.0},
                               "box": [0.5, 1.5, -1.5, 0.5]}),
        )
        cfg = PathConfig(4.0, 0.1, 9, truncation_eps=0.3)
        table = _density_jump_table(t, cfg)
        draws = []
        for i in range(4):
            rng = path_rng(9, i)
            draws.append((rng, *_pair_jumps(t, table, rng, cfg.horizon)))
        chunk, lengths = _pair_chunk(t, cfg, table, draws)
        assert chunk.jump_flags.sum() > 20
        for r in range(4):
            ref = ref_simulate_pair_with_rng(t, cfg, path_rng(9, r), table)
            row = chunk.row(r, lengths[r])
            for name in ("times", "xi", "eta", "xi_left", "eta_left"):
                assert same(getattr(row, name), getattr(ref, name)), name
            assert np.array_equal(row.jump_flags, ref.jump_flags)


class TestChunkReductionsMatchThePerPathLoop:
    @pytest.mark.parametrize("z_list, want_times, min_at", [
        ([0.5, 1.0, 1.7], True, None),
        ([1.0], False, None),
        ([], False, None),  # z_half
        ([], False, 0.5),  # min_at
    ])
    def test_exact_batch(self, z_list, want_times, min_at):
        t, horizon, n, seed = jump_example_triplet(1.0, 1.0), 50.0, 150, 4
        batch = _fv_batch(t, z_list, horizon, n, seed, 0, want_times, min_at)
        ref = ref_batch(lambda rng: ref_fv_state_arrays(t, *_fv_events(t, horizon, rng), horizon),
                        z_list, horizon, n, seed, want_times, min_at)
        assert_batch_matches(batch, ref, z_list, want_times, min_at)
        if z_list:
            assert 0 < batch.hit[z_list[0]].sum() < n

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # of the reference
    @pytest.mark.parametrize("z_list, min_at", [([0.5, 1.0], None), ([], 0.5)])
    def test_overflowing_exact_rows_keep_their_finite_prefix(self, z_list, min_at):
        # xi = -t + N_t with rate 0.6: e^-xi overflows before t = 1800 on
        # about half of the paths, some of them after they are ruined.
        t, horizon, n, seed = jump_example_triplet(1.0, 0.6), 1800.0, 60, 2
        batch = _fv_batch(t, z_list, horizon, n, seed, 0, True, min_at)
        ref = ref_batch(lambda rng: ref_fv_state_arrays(t, *_fv_events(t, horizon, rng), horizon),
                        z_list, horizon, n, seed, True, min_at)
        assert_batch_matches(batch, ref, z_list, True, min_at)
        assert 0 < batch.nonfinite < n
        assert not np.isfinite(batch.z_T).all()

    @pytest.mark.parametrize("z_list, want_times, min_at", [
        ([0.25, 0.5, 1.0], True, None),
        ([], False, None),
        ([], False, 0.5),
    ])
    def test_mixed_batch(self, z_list, want_times, min_at):
        horizon, step, n, seed = 5.0, 0.05, 120, 3
        cfg = PathConfig(horizon, step, seed)
        batch = _mixed_batch(MIXED, z_list, horizon, step, n, seed, 0, None, want_times, min_at)
        ref = ref_batch(lambda rng: RefEulerPath(MIXED, cfg, None, rng),
                        z_list, horizon, n, seed, want_times, min_at)
        assert_batch_matches(batch, ref, z_list, want_times, min_at)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # of the reference
    def test_overflowing_mixed_rows_keep_their_finite_prefix(self):
        # e^-xi grows like e^t and overflows before t = 800; Z rises with it
        # until a rare jump of eta ruins the path, on about half of them.
        t = LevyTriplet2D((-1.0, 1.0), ((0.01, 0.0), (0.0, 0.01)), atoms((0.1, -1.5, 0.001)))
        horizon, step, n, seed = 800.0, 0.5, 40, 1
        cfg = PathConfig(horizon, step, seed)
        batch = _mixed_batch(t, [0.5], horizon, step, n, seed, 0, None, True)
        ref = ref_batch(lambda rng: RefEulerPath(t, cfg, None, rng), [0.5], horizon, n, seed, True)
        assert_batch_matches(batch, ref, [0.5], True)
        assert 0 < batch.nonfinite < n
