"""Path simulation: jump-adapted Euler, the exact event-driven engine, the
stochastic-exponential validation, and the monitored states of a chunk."""

import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from gouruin import simulate as simulate_module
from gouruin.errors import InvalidModelError, NotSupportedError
from gouruin.estimate import _dispatch_batch, _fv_batch, _mixed_batch
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
    _KEY_BLOCK,
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
    first_passage,
    fv_first_passage,
    path_rng,
    simulate_pair,
    time_grid,
)
from oracles import simulate_stochastic_exponential

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


class TestPathRng:
    """``path_rng`` computes the Philox keys a block at a time; its
    generators equal numpy's SeedSequence route bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("stream", [0, 1, 2**33])
    @pytest.mark.parametrize("index", [
        0, 1, _KEY_BLOCK - 1, _KEY_BLOCK, 2 * _KEY_BLOCK + 7, 2**32 - 1, 2**32,
    ])
    def test_equals_the_seed_sequence_generator(self, seed, stream, index):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
        ref = np.random.Generator(np.random.Philox(ss))
        got = path_rng(seed, index, stream)
        state, ref_state = got.bit_generator.state["state"], ref.bit_generator.state["state"]
        assert np.array_equal(state["key"], ss.generate_state(2, np.uint64))
        assert np.array_equal(state["key"], ref_state["key"])
        assert np.array_equal(state["counter"], ref_state["counter"])
        for draw in ("standard_normal", "standard_exponential", "random"):
            assert getattr(got, draw)(9).tobytes() == getattr(ref, draw)(9).tobytes()

    def test_generators_pickle(self):
        rng = path_rng(3, 10, 1)
        rng.standard_normal(5)
        copy = pickle.loads(pickle.dumps(rng))
        assert copy.standard_normal(7).tobytes() == rng.standard_normal(7).tobytes()

    @pytest.mark.parametrize("args", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-(2**64), 3, 1)])
    def test_negative_words_are_input_errors(self, args):
        with pytest.raises(InvalidModelError, match="non-negative"):
            path_rng(*args)

    def test_threads_share_the_key_cache(self):
        # More threads than cores, switching often, from empty caches.
        def key(i):
            return path_rng(5, i, 2).bit_generator.state["state"]["key"].tobytes()

        idx = range(0, 12 * _KEY_BLOCK, 5)  # more blocks than the cache holds
        want = [key(i) for i in idx]
        simulate_module._key_block.cache_clear()
        simulate_module._pool_prefix.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(key, idx, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_two_threads_give_the_batch_of_one(self, monkeypatch):
        # Terminal values on grid_bridge: two normals per path, over four
        # key blocks, each run from an empty key cache.
        t = triplet((0.5, 0.3), ((0.0, 0.0), (0.0, 1.0)))
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("GOU_THREADS", threads)
            simulate_module._key_block.cache_clear()
            b = _dispatch_batch(t, [], 5.0, 2 * _KEY_BLOCK + 300, 11, 1, step=0.05)
            assert b.engine == "grid_bridge"
            runs.append((b.z_T.tobytes(), b.z_half.tobytes()))
        assert runs[0] == runs[1]


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
        assert int(p.jump_flags.sum()) == 0

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
        assert int(p.jump_flags.sum()) > 0

    def test_jump_counts_follow_the_poisson_law(self):
        lam, T = 2.0, 1.0
        t = jump_example_triplet(1.0, lam)
        counts = np.array(
            [
                int(simulate_pair(t, PathConfig(T, 0.5, 11), path_index=i).jump_flags.sum())
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
            chunk = _fv_state_arrays(t, [_fv_events(t, T, path_rng(77, i))], T)
            if chunk.n[0] == 0:
                s = chunk.states(z)
                assert s.length[0] == 2 and s.time[0, 1] == T
                assert s.V[0, 1] == pytest.approx(closed, rel=1e-12)
                return
        pytest.fail("no arrival-free path found")

    def test_threshold_invariant_no_ruin(self):
        t = jump_example_triplet(1.0, 1.0)
        z = E / (E - 1.0)
        for i in range(200):
            rng = path_rng(404, i)
            assert not fv_first_passage(t, z, 50.0, rng).hit

    def test_jump_relation_from_zero_start(self):
        # V jumps by (e - 1) V- - e at an arrival of the preset driver: the
        # pre-jump and the post-jump state share the arrival's instant.
        t = jump_example_triplet(1.0, 1.0)
        for i in range(50):
            chunk = _fv_state_arrays(t, [_fv_events(t, 2.0, path_rng(15, i))], 2.0)
            if chunk.n[0] == 0:
                continue
            s = chunk.states(0.0)
            assert s.jump[0, :3].tolist() == [False, False, True]
            assert s.time[0, 1] == s.time[0, 2] == chunk.tau[0, 0]
            v_left, v = s.V[0, 1], s.V[0, 2]
            assert v - v_left == pytest.approx((E - 1.0) * v_left - E, rel=1e-9)
            return
        pytest.fail("no path with an arrival found")

    def test_exact_and_grid_engines_agree_in_distribution(self):
        # Same seed gives the same arrivals, so the jump instants agree and
        # xi agrees there up to Euler error, which is zero here
        # (piecewise-linear drivers).
        t = jump_example_triplet(0.7, 1.3)
        cfg = PathConfig(3.0, 0.01, 52)
        s = _fv_state_arrays(t, [_fv_events(t, 3.0, path_rng(52, 4))], 3.0).states(0.0)
        k = s.length[0]
        at_jumps = s.jump[0, :k]
        pg = simulate_pair(t, cfg, path_index=4)
        assert at_jumps.sum() > 0
        assert np.array_equal(s.time[0, :k][at_jumps], pg.times[pg.jump_flags])
        assert np.allclose(s.xi[0, :k][at_jumps], pg.xi[pg.jump_flags], atol=1e-12)
        assert s.xi[0, k - 1] == pytest.approx(pg.xi[-1], abs=1e-12)

    def test_continuous_crossing_time_is_exact(self):
        # Pure downward drift in eta: V(t) = z - t crosses at exactly z.
        t = triplet((0.0, -1.0))
        rng = path_rng(1, 0)
        fp = fv_first_passage(t, 0.25, 10.0, rng)
        assert fp.hit and fp.continuous_crossing
        assert fp.time == pytest.approx(0.25, rel=1e-12)
        assert fp.v_at_hit == 0.0

    def test_states_start_at_z_and_end_at_the_horizon(self):
        # t = 0, then a pre-jump and a post-jump state per arrival, then T
        t = jump_example_triplet(1.0, 1.0)
        events = [_fv_events(t, 3.0, path_rng(6, i)) for i in range(6)]
        chunk = _fv_state_arrays(t, events, 3.0)
        assert (chunk.bx, chunk.by) == (-1.0, 2.0)
        s = chunk.states(0.7)
        assert np.array_equal(s.length, 2 * chunk.n + 2)
        for r, (tau, _, _) in enumerate(events):
            k = s.length[r]
            assert (s.time[r, 0], s.xi[r, 0], s.Z[r, 0], s.V[r, 0]) == (0.0, 0.0, 0.0, 0.7)
            assert np.array_equal(s.time[r, 1:k - 1], np.repeat(tau, 2))
            assert np.array_equal(s.jump[r, :k], [False] + [False, True] * len(tau) + [False])
            assert (s.time[r, k - 1], s.xi[r, k - 1], s.Z[r, k - 1]) == (
                3.0, chunk.xi_T[r], chunk.z_T[r])
            assert np.allclose(s.V[r, :k], np.exp(s.xi[r, :k]) * (0.7 + s.Z[r, :k]), rtol=1e-12)


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
            if int(p.jump_flags.sum()) > 10:
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
    horizon: float

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

    def states(self, z):
        """t = 0, each arrival's pre-jump and post-jump state, the horizon."""
        def pairs(a, b):
            return np.column_stack([a, b]).ravel()

        time = np.concatenate([[0.0], np.repeat(self.tau, 2), [self.horizon]])
        xi = np.concatenate([[0.0], pairs(self.xi_pre, self.xi_post), [self.xi_T]])
        Z = np.concatenate([[0.0], pairs(self.z_pre, self.z_post), [self.z_T]])
        held = ref_inf_past_overflow(Z)
        if not math.isfinite(self.xi_T):
            held[-1] = math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            V = np.exp(xi) * (z + held)
        try:
            V[-1] = math.exp(self.xi_T) * (z + held[-1])
        except OverflowError:
            V[-1] = math.copysign(math.inf, z + held[-1])
        return time, xi, Z, V, np.array([False] + [False, True] * len(self.tau) + [False])


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
    return RefExactPath(tau, bx, by, xi_pre, xi_post, z_pre, z_post, z_final, xi_final, horizon)


def ref_simulate_pair_with_rng(t, cfg, rng, jump_table):
    atoms = t.jumps.atoms_or_none()
    if atoms is None:
        jump_times, jx, jy = _truncated_density_jumps(jump_table, rng, cfg.horizon)
        jump_sizes = np.column_stack([jx, jy])
        bx = t.gamma_tilde[0] - jump_table.comp[0]
        by = t.gamma_tilde[1] - jump_table.comp[1]
    else:
        # one clock at the total rate, then the atom of each arrival
        bx, by = _uncompensated_drift(t)
        rates = np.array([a.rate for a in atoms])
        jump_times = scalar_arrival_times(rng, rates.sum(), cfg.horizon)
        kinds = np.zeros(len(jump_times), dtype=int)
        if len(atoms) > 1 and len(jump_times):
            kinds = rng.choice(len(atoms), size=len(jump_times), p=rates / rates.sum())
        jump_sizes = np.array([[atoms[k].x, atoms[k].y] for k in kinds]).reshape(-1, 2)

    # round(T / step) equal steps, ending exactly at the horizon
    n_steps = max(1, round(cfg.horizon / cfg.step))
    grid = np.arange(n_steps + 1) * (cfg.horizon / n_steps)
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

    def states(self, z):
        with np.errstate(over="ignore", invalid="ignore"):
            V = np.exp(self.p.xi) * (z + ref_inf_past_overflow(self.Z))
        return self.p.times, self.p.xi, self.Z, V, self.p.jump_flags


def ref_batch(simulate, z_list, horizon, n, seed, want_times=False, states_at=None):
    """The per-path loop: ``simulate(rng)`` builds one reference path;
    with ``states_at``, each path's states at that level are kept."""
    levels = sorted(set(z_list))
    out = {
        "hit": np.zeros((len(levels), n), dtype=bool),
        "v_hit": np.full((len(levels), n), math.nan),
        "continuous": np.zeros((len(levels), n), dtype=bool),
        "time": np.full((len(levels), n), math.nan),
        "z_T": np.empty(n), "z_half": np.full(n, math.nan), "states": [],
        "nonfinite": 0,
    }
    for i in range(n):
        path = simulate(path_rng(seed, i, 0))
        out["z_T"][i] = path.z_T
        if not levels and states_at is None:
            out["z_half"][i] = path.z_at(0.5 * horizon)
        if states_at is not None:
            out["states"].append(path.states(states_at))
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
        if not finite:
            out["nonfinite"] += states_at is not None or not out["hit"][:, i].all()
    return out


def states_sink(z, n):
    """A sink for the batch loop that gathers each path's states at level
    z, and a function that returns them, one (time, xi, Z, V, jump) tuple
    per path."""
    parts = [[] for _ in range(n)]

    def sink(ids, chunk):
        s = chunk.states(z)
        for r, i in enumerate(ids.tolist()):
            parts[i].append([a[r, :s.length[r]] for a in s[:5]])

    def states():
        return [tuple(np.concatenate(cols) for cols in zip(*p)) for p in parts]

    return sink, states


def assert_batch_matches(batch, ref, z_list, want_times=False, states=None):
    levels = sorted(set(z_list))
    for k, z in enumerate(levels):
        assert np.array_equal(batch.hit[z], ref["hit"][k])
        assert np.array_equal(batch.continuous[z], ref["continuous"][k])
        assert same(batch.v_hit[z], ref["v_hit"][k])
        if want_times:
            assert same(batch.time[z], ref["time"][k])
    assert same(batch.z_T, ref["z_T"])
    if not levels and states is None:
        assert same(batch.z_half, ref["z_half"])
    if states is not None:
        assert len(states) == len(ref["states"])
        for got, want in zip(states, ref["states"]):
            assert all(same(a, b) for a, b in zip(got, want))
    assert batch.nonfinite == ref["nonfinite"]


class StubGaps:
    """Generator stub: ``exponential`` repeats the pattern of ``gaps`` (a
    zero gap puts two arrivals at one instant), so arrivals land where a
    test wants them; the atoms of the arrivals and the normals come from a
    real generator."""

    def __init__(self, gaps, seed):
        self.gaps = gaps
        self.real = np.random.default_rng(seed)

    def exponential(self, scale, size):
        return np.resize(np.array(self.gaps, dtype=float), size)

    def standard_normal(self, size=None, out=None):
        return self.real.standard_normal(size, out=out)

    def random(self, size=None):
        return self.real.random(size)

    def choice(self, *args, **kwargs):
        return self.real.choice(*args, **kwargs)


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
        chunk, lengths = _pair_chunk(MIXED, time_grid(cfg.horizon, cfg.step), None, draws)
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
        # Step 0.25: gaps of 0.5 and 0.25 land on grid instants, a zero gap
        # puts two jumps at one instant (0.5 on the grid, 1.55 off it), and
        # gaps of 0.3 and 0.7 fall between grid instants.
        t = LevyTriplet2D(
            (0.1, -0.2), ((0.3, 0.0), (0.0, 0.2)),
            atoms((0.2, -0.4, 1.0), (-0.1, 0.3, 1.0), (0.05, 0.5, 1.0)),
        )
        cfg = PathConfig(2.0, 0.25, 1)
        gaps = [(0.5, 0.0, 0.25, 0.3), (0.7,)]
        draws = []
        for r, g in enumerate(gaps):
            rng = StubGaps(g, r)
            draws.append((rng, *_pair_jumps(t, None, rng, cfg.horizon)))
        chunk, lengths = _pair_chunk(t, time_grid(cfg.horizon, cfg.step), None, draws)
        # row 0 jumps at 0.5 (twice), 0.75, 1.05, 1.55 (twice) and 1.8, and
        # adds the last three instants; row 1 adds 0.7 and 1.4
        assert [len(d[1]) for d in draws] == [7, 2]
        assert lengths.tolist() == [9 + 3, 9 + 2]
        for r, g in enumerate(gaps):
            ref = ref_simulate_pair_with_rng(t, cfg, StubGaps(g, r), None)
            row = chunk.row(r, lengths[r])
            for name in ("times", "xi", "eta", "xi_left", "eta_left"):
                assert same(getattr(row, name), getattr(ref, name)), name
            assert np.array_equal(row.jump_flags, ref.jump_flags)
        shared = np.flatnonzero(chunk.times[0] == 0.5)[0]
        assert chunk.jump_flags[0, shared]
        assert chunk.xi[0, shared] - chunk.xi_left[0, shared] == draws[0][2][:2].sum()

    def test_density_driver_draws_from_the_jump_table(self):
        t = LevyTriplet2D(
            (0.3, 0.1), ((0.2, 0.0), (0.0, 0.1)),
            density_from_json({"kind": "uniform_box", "params": {"c": 3.0},
                               "box": [0.5, 1.5, -1.5, 0.5]}),
        )
        cfg = PathConfig(4.0, 0.1, 9, truncation_eps=0.3)
        table = _density_jump_table(t, cfg.truncation_eps)
        draws = []
        for i in range(4):
            rng = path_rng(9, i)
            draws.append((rng, *_pair_jumps(t, table, rng, cfg.horizon)))
        chunk, lengths = _pair_chunk(t, time_grid(cfg.horizon, cfg.step), table, draws)
        assert chunk.jump_flags.sum() > 20
        for r in range(4):
            ref = ref_simulate_pair_with_rng(t, cfg, path_rng(9, r), table)
            row = chunk.row(r, lengths[r])
            for name in ("times", "xi", "eta", "xi_left", "eta_left"):
                assert same(getattr(row, name), getattr(ref, name)), name
            assert np.array_equal(row.jump_flags, ref.jump_flags)


class TestChunkReductionsMatchThePerPathLoop:
    @pytest.mark.parametrize("z_list, want_times, states_at", [
        ([0.5, 1.0, 1.7], True, None),
        ([1.0], False, None),
        ([], False, None),  # z_half
        ([], False, 0.5),  # the states of every path
    ])
    def test_exact_batch(self, z_list, want_times, states_at):
        t, horizon, n, seed = jump_example_triplet(1.0, 1.0), 50.0, 150, 4
        sink, states = states_sink(states_at, n) if states_at is not None else (None, None)
        batch = _fv_batch(t, z_list, horizon, n, seed, 0, want_times, sink)
        ref = ref_batch(lambda rng: ref_fv_state_arrays(t, *_fv_events(t, horizon, rng), horizon),
                        z_list, horizon, n, seed, want_times, states_at)
        assert_batch_matches(batch, ref, z_list, want_times, states and states())
        if z_list:
            assert 0 < batch.hit[z_list[0]].sum() < n

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # of the reference
    @pytest.mark.parametrize("z_list, states_at", [([0.5, 1.0], None), ([], 0.5)])
    def test_overflowing_exact_rows_keep_their_finite_prefix(self, z_list, states_at):
        # xi = -t + N_t with rate 0.6: e^-xi overflows before t = 1800 on
        # about half of the paths, some of them after they are ruined.
        t, horizon, n, seed = jump_example_triplet(1.0, 0.6), 1800.0, 60, 2
        sink, states = states_sink(states_at, n) if states_at is not None else (None, None)
        batch = _fv_batch(t, z_list, horizon, n, seed, 0, True, sink)
        ref = ref_batch(lambda rng: ref_fv_state_arrays(t, *_fv_events(t, horizon, rng), horizon),
                        z_list, horizon, n, seed, True, states_at)
        assert_batch_matches(batch, ref, z_list, True, states and states())
        assert 0 < batch.nonfinite < n
        assert not np.isfinite(batch.z_T).all()

    @pytest.mark.parametrize("z_list, want_times, states_at", [
        ([0.25, 0.5, 1.0], True, None),
        ([], False, None),
        ([], False, 0.5),
    ])
    def test_mixed_batch(self, z_list, want_times, states_at):
        horizon, step, n, seed = 5.0, 0.05, 120, 3
        cfg = PathConfig(horizon, step, seed)
        sink, states = states_sink(states_at, n) if states_at is not None else (None, None)
        batch = _mixed_batch(MIXED, z_list, horizon, step, n, seed, 0, None, want_times, sink)
        ref = ref_batch(lambda rng: RefEulerPath(MIXED, cfg, None, rng),
                        z_list, horizon, n, seed, want_times, states_at)
        assert_batch_matches(batch, ref, z_list, want_times, states and states())

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


class TestOneJumpSampler:
    """Both per-path engines draw their atom jumps from ``_fv_events``, so
    on a zero-Gaussian driver ``mixed_grid`` sees the jumps of
    ``exact_fv`` path for path and differs from it only by Euler error."""

    def test_mixed_grid_draws_the_jumps_of_exact_fv(self):
        # With no Gaussian part xi = bx t + the jumps so far, so equal
        # post-jump xi at equal jump times means equal jump sizes; FV's
        # atoms have distinct x, so the x sizes name the atoms and the y too.
        n, seed, horizon = 40, 6, 10.0
        mixed_sink, mixed = states_sink(0.5, n)
        exact_sink, exact = states_sink(0.5, n)
        _mixed_batch(FV, [], horizon, 0.05, n, seed, 0, None, False, mixed_sink)
        _fv_batch(FV, [], horizon, n, seed, 0, False, exact_sink)
        jumps = 0
        for (tm, xm, _, _, jm), (te, xe, _, _, je) in zip(mixed(), exact()):
            assert same(tm[jm], te[je])
            assert same(xm[jm], xe[je])
            jumps += int(je.sum())
        assert jumps > 10 * n

    def test_terminal_error_halves_with_the_step(self):
        n, seed, horizon = 40, 6, 10.0
        exact = _fv_batch(FV, [], horizon, n, seed, 0).z_T
        errors = [
            np.abs(_mixed_batch(FV, [], horizon, step, n, seed, 0, None).z_T - exact).max()
            for step in (0.04, 0.02, 0.01, 0.005)
        ]
        assert errors[0] > 1e-3
        ratios = np.array(errors[1:]) / np.array(errors[:-1])
        assert np.all((0.4 < ratios) & (ratios < 0.6)), errors
