"""Path simulation: jump-adapted Euler, the exact event-driven engine, the
stochastic-exponential validation, and the monitored states of a chunk."""

import math
import pickle

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from gouruin import events
from gouruin import simulate as simulate_module
from gouruin.errors import InvalidModelError, NotSupportedError
from gouruin.estimate import _fv_batch, _mixed_batch
from gouruin.model import (
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    density_from_json,
)
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from gouruin.simulate import (
    FirstPassage,
    PathConfig,
    _arrival_times,
    _density_jump_table,
    _fv_events,
    _prefix_sums,
    _run_counters,
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
from oracles import (
    KeyedDraws,
    keyed_euler_path,
    keyed_exact_path,
    keyed_z,
    simulate_stochastic_exponential,
)

E = math.e


def atoms(*tuples):
    return FiniteAtomSet([JumpAtom(x, y, r) for x, y, r in tuples])


def triplet(gamma=(0.0, 0.0), sigma=((0.0, 0.0), (0.0, 0.0)), jumps=()):
    return LevyTriplet2D(gamma, sigma, atoms(*jumps))


def round_clocks(seed, path, rate, horizon, width):
    """Path ``path``'s clocks up to the horizon, drawn by ``_arrival_times``
    in rounds of ``width`` arrivals, and the number of rounds."""
    ids, k, clock, out = np.array([path]), np.zeros(1, dtype=np.intp), np.zeros(1), []
    while True:
        tau = _arrival_times(seed, 0, _run_counters(ids, k, width), clock, rate)[0]
        out += tau[tau <= horizon].tolist()
        if tau[-1] > horizon:
            return np.array(out), 1 + int(k[0]) // width
        k, clock = k + width, tau[-1:]


def exact_rounds(t, horizon, seed, paths, budget=8192):
    """The (ids, chunk) rounds of ``exact_fv`` paths ``paths``."""
    return list(events._fv_rounds(t, horizon, seed, 0, np.asarray(paths), budget))


def exact_rows(t, horizon, seed, paths, budget):
    """Each path's arrivals over its rounds (time, the states before and
    after it), its Z and xi at the horizon and Z at mid-horizon."""
    rows = {i: {"tau": [], "xi_pre": [], "xi_post": [], "z_pre": [], "z_post": [], "n": 0}
            for i in paths}
    for ids, chunk in events._fv_rounds(t, horizon, seed, 0, np.asarray(paths), budget):
        z_half = chunk.z_at(0.5 * horizon)
        for r, i in enumerate(ids.tolist()):
            row, k = rows[i], chunk.n[r]
            for name in ("tau", "xi_pre", "xi_post", "z_pre", "z_post"):
                row[name].append(getattr(chunk, name)[r, :k])
            row["n"] += k
            if not np.isnan(z_half[r]):
                row["z_half"] = z_half[r]
            if chunk.ended[r]:
                row["z_T"], row["xi_T"] = chunk.z_T[r], chunk.xi_pre[r, k]
    for row in rows.values():
        for name in ("tau", "xi_pre", "xi_post", "z_pre", "z_post"):
            row[name] = np.concatenate(row[name])
    return rows


def euler_rows(t, grid, table, seed, paths, budget):
    """Each path's instants over its ``mixed_grid`` rounds: times, xi, eta,
    their left limits, jump flags and Z."""
    rows = {i: [] for i in paths}
    for ids, chunk in events._mixed_rounds(t, grid, table, seed, 0, np.asarray(paths), budget):
        p, s = chunk.p, chunk.start
        for r, i in enumerate(ids.tolist()):
            cut = slice(s, chunk.lengths[r])
            rows[i].append([a[r, cut] for a in (p.times, p.xi, p.eta, p.xi_left, p.eta_left,
                                                 p.jump_flags, chunk.Z)])
    return {i: [np.concatenate(c) for c in zip(*parts)] for i, parts in rows.items()}


def stub_uniforms(monkeypatch, u0):
    """Every gap uniform reads ``u0``; the other draws stay keyed."""
    keyed = simulate_module._hash_uniforms

    def stub(seed, stream, idx0, flat_cells):
        if idx0 == 0:
            return np.full(np.shape(flat_cells), u0)
        return keyed(seed, stream, idx0, flat_cells)

    monkeypatch.setattr(simulate_module, "_hash_uniforms", stub)


class TestPathRng:
    """``path_rng``, which no engine opens, is numpy's SeedSequence route
    to a Philox generator, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("stream", [0, 1, 2**33])
    @pytest.mark.parametrize("index", [0, 1, 255, 256, 519, 2**32 - 1, 2**32])
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


class TestArrivalTimes:
    @pytest.mark.parametrize(
        "rate,horizon,seed",
        [(0.0, 10.0, 1), (1e-3, 0.5, 2), (1.0, 1000.0, 3), (2.5, 3.0, 4), (40.0, 7.3, 5)],
    )
    def test_matches_the_scalar_loop_bitwise(self, rate, horizon, seed):
        # one counter at a time, and in rounds of any width
        ref = np.array([c for _, c in KeyedDraws(seed, 0, 0).arrivals(rate, horizon)])
        for width in (1, 7, 64):
            got, _ = round_clocks(seed, 0, rate, horizon, width)
            assert got.dtype == np.float64
            assert np.array_equal(got, ref), width
        if rate < 1e-2:
            assert got.size == 0

    @pytest.mark.parametrize(
        "gap,rate,horizon", [(0.01, 1.0, 1.0), (1.0 / 16.0, 1e-9, 1.0), (0.3, 2.0, 100.0)]
    )
    def test_blocks_past_the_first_match_the_scalar_loop(self, gap, rate, horizon, monkeypatch):
        # Every gap uniform is the one of a gap near ``gap``: rounds of 16
        # arrivals run out before the horizon does, and each carries the
        # clock of the one before.
        u0 = -math.expm1(-gap * rate)
        stub_uniforms(monkeypatch, u0)
        step, clock, ref = -np.log1p(-np.float64(u0)) / rate, np.float64(0.0), []
        while (clock := clock + step) <= horizon:
            ref.append(clock)
        got, rounds = round_clocks(3, 0, rate, horizon, 16)
        assert np.array_equal(got, ref)
        assert rounds >= 2
        assert got[-1] <= horizon < got[-1] + step

    def test_event_types_match_the_per_arrival_lookup(self):
        t = triplet((0.4, 0.2), jumps=[(0.3, -0.5, 1.0), (-0.2, 0.4, 0.5), (0.1, -1.5, 0.3)])
        table = t.jumps.atoms_or_none()
        seen = set()
        for i in range(5):
            jx, jy = _fv_events(t, 8, 0, _run_counters(np.array([i]), 0, 30))
            draws = KeyedDraws(8, 0, i)
            ref = [draws.atom(k, *simulate_module._event_types(table)[1:]) for k in range(30)]
            assert np.array_equal(jx[0], [x for x, _ in ref])
            assert np.array_equal(jy[0], [y for _, y in ref])
            seen.update(next(i for i, a in enumerate(table) if a.x == x) for x, _ in ref)
        assert seen == {0, 1, 2}

    def test_gaps_follow_the_exponential_law(self):
        # the keyed gaps of many paths and arrivals against Exp(rate)
        rate = 2.5
        tau = _arrival_times(5, 0, _run_counters(np.arange(400), 0, 50), np.zeros(400), rate)
        gaps = np.diff(tau, axis=1, prepend=0.0).ravel()
        assert stats.kstest(gaps, stats.expon(scale=1.0 / rate).cdf).pvalue > 1e-3


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
            density_from_json({"kind": "uniform_box", "params": {"c": 0.3},
                               "box": [0.5, 1.5, -1.5, 0.5]}),
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
            (_, chunk), = exact_rounds(t, T, 77, [i])
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
            assert not fv_first_passage(t, z, 50.0, 404, i).hit

    def test_jump_relation_from_zero_start(self):
        # V jumps by (e - 1) V- - e at an arrival of the preset driver: the
        # pre-jump and the post-jump state share the arrival's instant.
        t = jump_example_triplet(1.0, 1.0)
        for i in range(50):
            (_, chunk), = exact_rounds(t, 2.0, 15, [i])
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
        (_, chunk), = exact_rounds(t, 3.0, 52, [4])
        s = chunk.states(0.0)
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
        fp = fv_first_passage(t, 0.25, 10.0, 1)
        assert fp.hit and fp.continuous_crossing
        assert fp.time == pytest.approx(0.25, rel=1e-12)
        assert fp.v_at_hit == 0.0

    def test_states_start_at_z_and_end_at_the_horizon(self):
        # t = 0, then a pre-jump and a post-jump state per arrival, then T
        t = jump_example_triplet(1.0, 1.0)
        (_, chunk), = exact_rounds(t, 3.0, 6, range(6))  # one round: every path ends
        assert (chunk.bx, chunk.by) == (-1.0, 2.0)
        assert chunk.ended.all() and chunk.n.max() > 2
        s = chunk.states(0.7)
        assert np.array_equal(s.length, 2 * chunk.n + 2)
        for r, n in enumerate(chunk.n):
            k = s.length[r]
            assert (s.time[r, 0], s.xi[r, 0], s.Z[r, 0], s.V[r, 0]) == (0.0, 0.0, 0.0, 0.7)
            assert np.array_equal(s.time[r, 1:k - 1], np.repeat(chunk.tau[r, :n], 2))
            assert np.array_equal(s.jump[r, :k], [False] + [False, True] * n + [False])
            assert (s.time[r, k - 1], s.xi[r, k - 1], s.Z[r, k - 1]) == (
                3.0, chunk.xi_pre[r, n], chunk.z_T[r])
            assert np.allclose(s.V[r, :k], np.exp(s.xi[r, :k]) * (0.7 + s.Z[r, :k]), rtol=1e-12)

    def test_continuation_rounds_write_each_instant_once(self):
        # Rounds of one arrival: the first holds t = 0, each later one
        # starts after the instant where the one before ended.
        t = jump_example_triplet(1.0, 1.0)
        i = next(i for i in range(50) if len(keyed_exact_path(t, 3.0, 6, i).tau) >= 3)
        rounds = exact_rounds(t, 3.0, 6, [i], budget=1)
        assert len(rounds) > 3
        parts = [c.states(0.7) for _, c in rounds]
        got = [np.concatenate([a[0, :s.length[0]] for s in parts for a in [s[f]]])
               for f in range(5)]
        for a, b in zip(got, keyed_exact_path(t, 3.0, 6, i).states(0.7)):
            assert same(a, b)
        # and on mixed_grid, rounds of three instants
        cfg = PathConfig(1.0, 0.05, 6)
        rounds = list(events._mixed_rounds(MIXED, time_grid(1.0, 0.05), None, 6, 0, np.array([i]), 4))
        assert len(rounds) > 3
        parts = [c.states(0.7) for _, c in rounds]
        got = [np.concatenate([a[0, :s.length[0]] for s in parts for a in [s[f]]])
               for f in range(5)]
        for a, b in zip(got, RefEulerPath(MIXED, cfg, None, i).states(0.7)):
            assert same(a, b)


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
# Per-path references: the keyed oracle of ``oracles.py`` draws one counter
# at a time.  A row of a round, over all its rounds, must equal its path
# built alone, bit for bit.
# ---------------------------------------------------------------------------


def same(a, b) -> bool:
    """Bitwise equal floats (signed zeros included), up to NaN payloads."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class RefEulerPath:
    """One ``mixed_grid`` path of the keyed oracle, with its Z."""

    def __init__(self, t, cfg, jump_table, path):
        self.p = keyed_euler_path(t, cfg.horizon, cfg.step, cfg.seed, path, 0, jump_table)
        self.Z = keyed_z(self.p)
        self.z_T, self.xi_T = self.Z[-1], self.p.xi[-1]

    def keep_finite_prefix(self):
        self.Z = np.where(np.isfinite(self.Z), self.Z, np.inf)

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
            V = np.exp(self.p.xi) * (z + np.where(np.isfinite(self.Z), self.Z, np.inf))
        return self.p.times, self.p.xi, self.Z, V, self.p.jump_flags


def ref_batch(simulate, z_list, horizon, n, seed, want_times=False, states_at=None):
    """The per-path loop: ``simulate(i)`` builds reference path i; with
    ``states_at``, each path's states at that level are kept.  Z at the
    horizon is NaN where a path is ruined at every level, or lost, as the
    batch then stops drawing it (unless it keeps the states)."""
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
        path = simulate(i)
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
        if levels and states_at is None and (out["hit"][:, i].all() or not finite):
            out["z_T"][i] = math.nan
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


MIXED = LevyTriplet2D(
    (0.5, 0.3), ((0.25, 0.1), (0.1, 0.5)), atoms((0.3, -0.5, 1.0), (-0.2, 0.4, 0.5))
)
FV = triplet((0.4, 0.2), jumps=[(0.3, -0.5, 1.0), (-0.2, 0.4, 0.5), (0.1, -1.5, 0.3)])


class TestChunkBuildersMatchThePerPathReference:
    @pytest.mark.parametrize("budget", [8192, 40, 1])
    def test_exact_rows_with_zero_one_and_many_arrivals(self, budget):
        # rows with no, one and many arrivals, in one round or several
        rows = {**exact_rows(FV, 30.0, 3, range(4), budget),
                **exact_rows(FV, 1.0, 3, range(4, 20), budget)}
        counts = sorted(r["n"] for r in rows.values())
        assert counts[:2] == [0, 0] and 1 in counts and counts[-1] > 20
        for i, row in rows.items():
            horizon = 30.0 if i < 4 else 1.0
            ref = keyed_exact_path(FV, horizon, 3, i)
            assert row["n"] == len(ref.tau)
            for name in ("tau", "xi_pre", "xi_post", "z_pre", "z_post"):
                assert same(row[name], getattr(ref, name)), name
            assert same(row["z_T"], ref.z_T) and same(row["xi_T"], ref.xi_T)
            assert same(row["z_half"], ref.z_at(0.5 * horizon))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_pair_rows_of_a_ragged_chunk(self, seed):
        cfg = PathConfig(3.0, 0.1, seed)
        grid = time_grid(cfg.horizon, cfg.step)
        whole = euler_rows(MIXED, grid, None, seed, range(5), 8192)
        assert len({len(r[0]) for r in whole.values()}) > 1  # ragged
        for budget in (8192, 24):
            rows = euler_rows(MIXED, grid, None, seed, range(5), budget)
            for r, got in rows.items():
                ref = keyed_euler_path(MIXED, cfg.horizon, cfg.step, seed, r)
                for name, a in zip(("times", "xi", "eta", "xi_left", "eta_left"), got):
                    assert same(a, getattr(ref, name)), name
                assert np.array_equal(got[5], ref.jump_flags)
                assert same(got[6], keyed_z(ref))
            p = simulate_pair(MIXED, cfg, path_index=4)
            assert same(p.xi, rows[4][1]) and same(compute_Z(p), rows[4][6])

    def test_jumps_at_grid_instants_and_at_one_instant(self, monkeypatch):
        # Step 0.25: gaps of 0.5 and 0.25 land on grid instants, a zero gap
        # puts two jumps at one instant (0.5 on the grid, 1.55 off it), and
        # gaps of 0.3 and 0.7 fall between grid instants.
        t = LevyTriplet2D(
            (0.1, -0.2), ((0.3, 0.0), (0.0, 0.2)),
            atoms((0.2, -0.4, 1.0), (-0.1, 0.3, 1.0), (0.05, 0.5, 1.0)),
        )
        cfg = PathConfig(2.0, 0.25, 1)
        gaps = {0: (0.5, 0.0, 0.25, 0.3), 1: (0.7,)}

        def stub_times(seed, stream, counters, clock, rate):
            path, index = counters >> np.uint64(32), (counters >> np.uint64(3)) & np.uint64(2**29 - 1)
            pattern = [gaps[int(p)] for p in path[:, 0]]
            g = np.array([[pat[int(k) % len(pat)] for k in row] for pat, row in zip(pattern, index)])
            return _prefix_sums(g, clock)[:, 1:]

        monkeypatch.setattr(events, "_arrival_times", stub_times)
        clocks = {r: [] for r in gaps}
        for r, g in gaps.items():
            clock = 0.0
            while (clock := clock + g[len(clocks[r]) % len(g)]) <= cfg.horizon:
                clocks[r].append(clock)
        # row 0 jumps at 0.5 (twice), 0.75, 1.05, 1.55 (twice) and 1.8, and
        # adds the last three instants; row 1 adds 0.7 and 1.4
        assert [len(c) for c in clocks.values()] == [7, 2]
        grid = time_grid(cfg.horizon, cfg.step)
        for budget in (8192, 4):
            rows = euler_rows(t, grid, None, 1, [0, 1], budget)
            assert [len(rows[r][0]) for r in gaps] == [9 + 3, 9 + 2]
            for r in gaps:
                ref = keyed_euler_path(t, cfg.horizon, cfg.step, 1, r, arrivals=clocks[r])
                for name, a in zip(("times", "xi", "eta", "xi_left", "eta_left"), rows[r]):
                    assert same(a, getattr(ref, name)), name
                assert np.array_equal(rows[r][5], ref.jump_flags)
            times, xi, _, xi_left, _, flags, _ = rows[0]
            shared = np.flatnonzero(times == 0.5)[0]
            assert flags[shared]
            draws = KeyedDraws(1, 0, 0)
            sizes = [draws.atom(k, *simulate_module._event_types(t.jumps.atoms_or_none())[1:])
                     for k in (0, 1)]
            assert xi[shared] - xi_left[shared] == sizes[0][0] + sizes[1][0]

    def test_density_driver_draws_from_the_jump_table(self):
        t = LevyTriplet2D(
            (0.3, 0.1), ((0.2, 0.0), (0.0, 0.1)),
            density_from_json({"kind": "uniform_box", "params": {"c": 3.0},
                               "box": [0.5, 1.5, -1.5, 0.5]}),
        )
        cfg = PathConfig(4.0, 0.1, 9, truncation_eps=0.3)
        table = _density_jump_table(t, cfg.truncation_eps)
        rows = euler_rows(t, time_grid(cfg.horizon, cfg.step), table, 9, range(4), 64)
        assert sum(r[5].sum() for r in rows.values()) > 20
        for r, got in rows.items():
            ref = keyed_euler_path(t, cfg.horizon, cfg.step, 9, r, jump_table=table)
            for name, a in zip(("times", "xi", "eta", "xi_left", "eta_left"), got):
                assert same(a, getattr(ref, name)), name
            assert np.array_equal(got[5], ref.jump_flags)


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
        ref = ref_batch(lambda i: keyed_exact_path(t, horizon, seed, i),
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
        ref = ref_batch(lambda i: keyed_exact_path(t, horizon, seed, i),
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
        ref = ref_batch(lambda i: RefEulerPath(MIXED, cfg, None, i),
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
        ref = ref_batch(lambda i: RefEulerPath(t, cfg, None, i), [0.5], horizon, n, seed, True)
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
