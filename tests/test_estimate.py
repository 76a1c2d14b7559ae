"""Monte Carlo estimators: engines, intervals, the ruin-formula check, and
reproducibility contracts."""

import ast
import hashlib
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gouruin.classify import DecisionKind, Verdict, no_ruin_threshold
from gouruin.errors import (
    InvalidModelError,
    NotApplicableError,
    NotSupportedError,
    UndeterminedError,
)
from gouruin.estimate import (
    EmpiricalCDF,
    _dispatch_batch,
    _gaussian_grid_batch,
    _select_engine,
    empirical_lower_bound,
    estimate_negative_prob,
    estimate_ruin,
    estimate_Zinf_cdf,
    ruin_formula_checks,
    ruin_records,
    validate_ruin_formula,
    wilson_interval,
    worker_count,
)
from gouruin import bridge, estimate, events, simulate
from gouruin.model import (
    FiniteAtomSet,
    JumpAtom,
    LevyTriplet2D,
    LineDensity,
    density_from_json,
    rigid_level,
)
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from gouruin.simulate import (
    PathConfig,
    first_passage,
    fv_first_passage,
    simulate_pair,
)
from oracles import keyed_euler_path, keyed_z, ks_distance

E = math.e


def atoms(*tuples):
    return FiniteAtomSet([JumpAtom(x, y, r) for x, y, r in tuples])


def triplet(gamma=(0.0, 0.0), sigma=((0.0, 0.0), (0.0, 0.0)), jumps=()):
    return LevyTriplet2D(gamma, sigma, atoms(*jumps))


def lowest_sink(z, n):
    """Each path's smallest V at level z, gathered by a sink of the batch
    loop from the states of its chunks, and the sink."""
    low = np.full(n, math.inf)

    def sink(ids, chunk):
        low[ids] = np.minimum(low[ids], chunk.states(z).lowest())

    return low, sink


def brownian_eta():
    return triplet(sigma=((0.0, 0.0), (0.0, 1.0)))


def drift_xi_brownian_eta():
    return triplet((1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))


class TestWilson:
    def test_brackets_the_raw_fraction(self):
        for k, n in ((0, 100), (1, 100), (50, 100), (100, 100)):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_zero_events_interval_still_informative(self):
        lo, hi = wilson_interval(0, 10_000)
        assert lo == 0.0 and 0.0 < hi < 1e-3


class TestEstimateRuin:
    def test_subordinator_never_ruins_from_zero(self):
        t = triplet((0.0, 1.0), jumps=[(0.0, 0.5, 1.0)])
        est = estimate_ruin(t, 0.0, 20.0, 500, seed=5)
        assert est.n_events == 0
        assert est.point == 0.0

    def test_continuous_example_above_threshold(self):
        # Closed-form driver: the integral never goes below -1.
        t = continuous_example_triplet(0.3)
        est = estimate_ruin(t, 1.2, 10.0, 2000, seed=6)
        assert est.diagnostics["engine"] == "expmart"
        assert est.n_events == 0

    def test_jump_example_below_threshold_is_ruinous(self):
        t = jump_example_triplet(1.0, 1.0)
        est = estimate_ruin(t, 0.5, 200.0, 4000, seed=7)
        assert est.diagnostics["engine"] == "exact_fv"
        assert est.ci_low > 0.0

    def test_monotone_in_z_under_common_random_numbers(self):
        t = drift_xi_brownian_eta()
        zs = [0.0, 0.25, 0.5, 1.0, 1.5]
        pts = [
            estimate_ruin(t, z, 10.0, 2000, seed=11, step=0.01).point for z in zs
        ]
        assert all(a >= b for a, b in zip(pts, pts[1:]))

    def test_ruin_dominates_limit_tail(self):
        # P(limit < -z) is contained in ruin: psi-hat + 3 SE >= G-hat(-z) - 3 SE.
        t = drift_xi_brownian_eta()
        n = 4000
        z = 0.4
        est = estimate_ruin(t, z, 20.0, n, seed=13, step=0.005)
        cdf = estimate_Zinf_cdf(t, 20.0, n, seed=13, step=0.005)
        g = float(cdf(-z))
        se_p = math.sqrt(max(est.point * (1 - est.point), 1e-9) / n)
        se_g = math.sqrt(max(g * (1 - g), 1e-9) / n)
        assert est.point + 3 * se_p >= g - 3 * se_g

    def test_determinism(self):
        t = jump_example_triplet(1.0, 1.0)
        a = estimate_ruin(t, 0.8, 50.0, 1000, seed=21)
        b = estimate_ruin(t, 0.8, 50.0, 1000, seed=21)
        assert a == b

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # Chunks are a fixed path block, so neither the chunks nor the
        # results depend on the worker count (2 is within the clamp).
        chunk_ranges = estimate._chunk_ranges
        seen = []

        def recorded(n, chunk):
            seen.append(chunk_ranges(n, chunk))
            return seen[-1]

        monkeypatch.setattr(estimate, "_chunk_ranges", recorded)
        drivers = [
            (jump_example_triplet(1.0, 1.0), 50.0, 800),
            (triplet((0.5, 0.3), ((0.25, 0.1), (0.1, 0.5)), [(0.3, -0.5, 1.0)]), 5.0, 150),
        ]
        for t, horizon, n in drivers:
            runs = []
            for threads in ("1", "2"):
                monkeypatch.setenv("GOU_THREADS", threads)
                seen.clear()
                runs.append((estimate_ruin(t, 0.8, horizon, n, seed=22), list(seen)))
            assert runs[0] == runs[1]
            assert len(runs[0][1][0]) > 1


    def test_worker_count_is_clamped_to_the_cpus(self, monkeypatch):
        # Only the returned count is checked; no pool is started.
        monkeypatch.setenv("GOU_THREADS", str(10**9))
        assert worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.setenv("GOU_THREADS", "0")
        assert worker_count() == 1


def correlated_gaussian():
    return triplet((0.5, 0.3), ((0.25, 0.1), (0.1, 0.5)))


# (engine, driver, horizon, step), one driver per engine, and on mixed_grid
# one with jumps and one without (random xi with eta)
ENGINE_CASES = [
    ("exact_fv", jump_example_triplet(1.0, 1.0), 20.0, None),
    ("expmart", continuous_example_triplet(0.4), 5.0, 0.01),
    ("grid_bridge", drift_xi_brownian_eta(), 5.0, 0.01),
    (
        "mixed_grid",
        triplet((0.5, 0.3), ((0.25, 0.1), (0.1, 0.5)), [(0.3, -0.5, 1.0), (-0.2, 0.4, 0.5)]),
        3.0,
        0.02,
    ),
    ("mixed_grid", correlated_gaussian(), 5.0, 0.01),
]
CASE_IDS = ["exact_fv", "expmart", "grid_bridge", "mixed_grid", "mixed_grid_no_jumps"]


def engine_case(case_id):
    return ENGINE_CASES[CASE_IDS.index(case_id)]


def keyed_W(var, seed, stream, i):
    """W of path i at every node of the keyed midpoint layout over the
    per-step variances ``var`` (a whole number of top cells), rebuilt level
    by level: a forward walk over the top nodes, then the bridge law at each
    midpoint, each node with the keyed normal at (i << 32 | node << 2)."""
    top = 1 << bridge._TOP_LEVEL
    W = np.zeros(len(var) + 1)

    def normals(nodes):
        return bridge._keyed_normals(seed, stream, (i << 32) | (nodes.astype(np.uint64) << 2))

    tops = np.arange(top, len(var) + 1, top)
    W[tops] = np.cumsum(np.sqrt(var.reshape(-1, top).sum(axis=1)) * normals(tops))
    for half in (top >> k for k in range(1, bridge._TOP_LEVEL + 1)):
        sums = var.reshape(-1, half).sum(axis=1)
        left, right = sums[0::2], sums[1::2]
        m = np.arange(half, len(var), 2 * half)
        W[m] = (W[m - half] + left / (left + right) * (W[m + half] - W[m - half])
                + np.sqrt(left * right / (left + right)) * normals(m))
    return W


def grid_Z(t, engine, seed, i, n_steps, h):
    """Grid values of the discounted integral on path i: from the keyed
    oracle of a ``mixed_grid`` path (``keyed_euler_path``) on a driver with
    no jumps, or from the keyed midpoint layout (``keyed_W``) on
    ``grid_bridge`` and ``expmart``."""
    (gx, gy), (s11, s12), s22 = t.gamma_tilde, t.sigma[0], t.sigma[1][1]
    times = np.arange(n_steps + 1) * h
    if engine == "mixed_grid":
        return keyed_z(keyed_euler_path(t, n_steps * h, h, seed, i))
    top = 1 << bridge._TOP_LEVEL
    steps = np.arange(-(-n_steps // top) * top) * h
    if engine == "grid_bridge":
        disc = np.exp(-gx * steps)
        W = keyed_W(disc * disc * s22 * h, seed, 0, i)[:n_steps + 1]
        return np.concatenate([[0.0], np.cumsum(disc * gy * h)])[:n_steps + 1] + W
    u0 = -s12 / s11  # expmart: the key is xi signed so that ruin lies below
    sign = -1.0 if u0 > 0.0 else 1.0
    xi = gx * times + sign * keyed_W(np.full(len(steps), s11 * h), seed, 0, i)[:n_steps + 1]
    return u0 * np.expm1(-xi)


class TestRigidLevel:
    def test_engine_and_classifier_share_the_rigidity_rule(self):
        # s11 = 5e-12 is above the absolute 1e-12 but inside the dead band
        # relative to s22 = 10: no rigid level, so the classifier finds ruin
        # everywhere and the closed-form engine must not claim u0 = 1414213.56.
        s11, s12 = 5e-12, -math.sqrt(5e-11)
        u0 = -s12 / s11
        t = triplet((0.3, u0 * (s11 / 2 - 0.3)), ((s11, s12), (s12, 10.0)))
        assert rigid_level(t.sigma) is None
        assert no_ruin_threshold(t).decision.kind is DecisionKind.RUIN_EVERYWHERE
        assert _select_engine(t) != "expmart"

    def test_grid_drivers_keep_their_engines(self):
        for c in (0.4, -0.3):
            assert rigid_level(continuous_example_triplet(c).sigma) == 1.0
            assert _select_engine(continuous_example_triplet(c)) == "expmart"
        assert rigid_level(brownian_eta().sigma) is None
        assert _select_engine(brownian_eta()) == "grid_bridge"


class TestRuinRecords:
    @pytest.mark.parametrize("engine,t,horizon,step", ENGINE_CASES, ids=CASE_IDS)
    def test_records_match_the_estimate(self, engine, t, horizon, step):
        z, n, seed = 0.5, 300, 11
        assert _select_engine(t) == engine
        est = estimate_ruin(t, z, horizon, n, seed, step=step)
        assert est.diagnostics["engine"] == engine
        hit, times, values, cont = ruin_records(t, z, horizon, n, seed, step=step)
        assert int(hit.sum()) == est.n_events > 0
        assert np.array_equal(np.isfinite(times), hit)
        assert np.all((times[hit] >= 0.0) & (times[hit] <= horizon))
        batch = _dispatch_batch(t, [z], horizon, n, seed, 0, step=step)
        assert np.array_equal(hit, batch.hit[z])
        assert np.array_equal(values, batch.v_hit[z], equal_nan=True)
        assert np.array_equal(cont, batch.continuous[z])

    @pytest.mark.parametrize("case", ["expmart", "grid_bridge", "mixed_grid_no_jumps"])
    def test_grid_time_not_after_first_negative_grid_value(self, case):
        engine, t, horizon, step = engine_case(case)
        z, n, seed = 0.5, 200, 3
        n_steps = int(round(horizon / step))
        h = horizon / n_steps
        grid = np.arange(n_steps + 1) * h
        hit, times, _, _ = ruin_records(t, z, horizon, n, seed, step=step)
        below_somewhere = 0
        for i in range(n):
            below = z + grid_Z(t, engine, seed, i, n_steps, h) < 0.0
            if engine == "mixed_grid":
                assert hit[i] == below.any()
            if below.any():
                below_somewhere += 1
                first = grid[np.argmax(below)]
                assert hit[i] and times[i] <= first
                if engine == "mixed_grid":
                    assert times[i] == first
        assert below_somewhere > 0

    @pytest.mark.parametrize("gx, crossing", [
        (0.0, 0.7),
        (0.5, -2.0 * math.log(0.65)),
        (-0.5, 2.0 * math.log(1.35)),
    ])
    def test_exact_fv_continuous_crossing_time(self, gx, crossing):
        # No jumps and no Gaussian part: Z_t = -(1 - e^(-gx t)) / gx, or -t
        # at gx = 0, reaches -0.7 at t = -ln(1 - 0.7 gx) / gx, or 0.7.
        t = triplet((gx, -1.0))
        assert _select_engine(t) == "exact_fv"
        hit, times, values, cont = ruin_records(t, 0.7, 2.0, 3, seed=1)
        assert hit.all() and cont.all() and np.all(values == 0.0)
        assert times == pytest.approx([crossing] * 3, rel=1e-12)

    def test_exact_fv_routes_agree(self):
        t = jump_example_triplet(1.0, 1.0)
        z, horizon, n, seed = 0.5, 20.0, 200, 4
        batch = _dispatch_batch(t, [z], horizon, n, seed, 0, want_times=True)
        assert batch.engine == "exact_fv"
        passages = [fv_first_passage(t, z, horizon, seed, i) for i in range(n)]
        assert np.array_equal(batch.hit[z], [fp.hit for fp in passages])
        assert np.array_equal(batch.time[z], [fp.time for fp in passages], equal_nan=True)
        assert np.array_equal(batch.v_hit[z], [fp.v_at_hit for fp in passages], equal_nan=True)
        assert np.array_equal(
            batch.continuous[z], [fp.continuous_crossing for fp in passages]
        )
        assert batch.hit[z].any()


def expmart_below():
    """``expmart`` with u0 = -1: -Z = e^-xi - 1 falls as xi rises."""
    return triplet((0.3, -0.2), ((1.0, 1.0), (1.0, 1.0)))


def overflowing(engine):
    """xi drifts to -infinity, so ruin is certain and exp(-xi) overflows
    near t = 709 (ruin comes long before)."""
    if engine == "grid_bridge":
        return triplet((-1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
    if engine == "mixed_grid":  # random xi, no jumps
        return triplet((-1.0, 0.0), ((0.25, 0.0), (0.0, 1.0)))
    return triplet((-1.0, -1.5), ((1.0, 1.0), (1.0, 1.0)))  # expmart, u0 = -1


def first_jump_ruins(engine):
    """xi falls at rate 20, so exp(-xi) overflows near t = 35; the one jump
    type (rate 0.05) ruins from z = 1 whenever it comes."""
    s22 = 0.01 if engine == "mixed_grid" else 0.0
    return triplet((-20.0, 1.0), ((0.0, 0.0), (0.0, s22)), [(0.5, -1.0, 0.05)])


# (driver, seed, n): sha256 of the hit and time arrays at levels 0, 0.5, 1
# (horizon 5, step 0.01): the keyed midpoint layout on grid_bridge and
# expmart, and on the driver with no jumps the keyed normal pairs of
# mixed_grid, which keyed_euler_path gives path by path.
GOLDEN = [
    (drift_xi_brownian_eta(), 5, 300,
     "1ce0627c1b95df4f9366377bae994dbf73f82c3cbfb4381fde7ff53f50e95ee5"),
    (continuous_example_triplet(0.4), 6, 300,
     "0be6f9432f7f568eec5c2736c18986d5efa6dc17dd11ba30c94e975c6c33dc46"),
    (expmart_below(), 7, 300,
     "c7ee3b02600d81c1a00e2fc6f241563f9371ab7c5607d3b773bb5aac58276b53"),
    (correlated_gaussian(), 8, 300,
     "1f9726a033f3d4aa9217d1386b5b7168e387967837a2bd1aaaabc9675e1f353c"),
]

STREAM_CASES = [
    ("grid_bridge", drift_xi_brownian_eta()),
    ("expmart", continuous_example_triplet(0.4)),
    ("expmart", expmart_below()),
    ("mixed_grid", correlated_gaussian()),
]


def count_normals(monkeypatch) -> list:
    """Wrap ``bridge._keyed_normals`` (``grid_bridge``, ``expmart``) and
    ``events._keyed_increments`` (``mixed_grid``, two normals per interval)
    so that the normals each call draws are counted in the returned list."""
    drawn = []
    keyed = bridge._keyed_normals

    def counted_keyed(seed, stream, counters):
        drawn.append(np.size(counters))
        return keyed(seed, stream, counters)

    increments = events._keyed_increments

    def counted_increments(seed, stream, ids, interval, width, *factors):
        drawn.append(2 * len(ids) * width)
        return increments(seed, stream, ids, interval, width, *factors)

    monkeypatch.setattr(bridge, "_keyed_normals", counted_keyed)
    monkeypatch.setattr(events, "_keyed_increments", counted_increments)
    return drawn


#: The benchmark's bridge shapes at seed 1 (the criterion-6 formula batch,
#: expmart ruin at c = -0.3, the drift ruin without and with times), with
#: the normals and bridge-extreme steps each draws at most: the refinement
#: may come to draw fewer, never more.
REFINEMENT_WORK = {
    "criterion_6": (lambda: ruin_formula_checks(drift_xi_brownian_eta(), [0.0, 0.5, 1.0], 20.0,
                                                1000, 1, step=1e-3), 304_933, 3_222),
    "expmart": (lambda: estimate_ruin(continuous_example_triplet(-0.3), 0.5, 10.0, 2000, 1,
                                      step=0.01), 267_286, 8_031),
    "drift": (lambda: estimate_ruin(drift_xi_brownian_eta(), 0.5, 10.0, 2000, 1),
              135_448, 9_872),
    "drift_times": (lambda: ruin_records(drift_xi_brownian_eta(), 0.5, 10.0, 2000, 1),
                    172_312, 24_447),
}


class TestStreamedGridKernel:
    LEVELS = [0.0, 0.25, 0.5, 1.0]

    @pytest.mark.parametrize("t,seed,n,digest", GOLDEN,
                             ids=[f"{_select_engine(g[0])}-{g[1]}" for g in GOLDEN])
    def test_paths_match_the_pinned_digests(self, t, seed, n, digest):
        batch = _dispatch_batch(t, [0.0, 0.5, 1.0], 5.0, n, seed, 0, step=0.01, want_times=True)
        d = hashlib.sha256()
        for z in (0.0, 0.5, 1.0):
            d.update(batch.hit[z].tobytes())
            d.update(batch.time[z].tobytes())
        assert d.hexdigest() == digest

    @pytest.mark.parametrize("engine,t", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
    def test_block_sizes_do_not_change_the_paths(self, engine, t, monkeypatch):
        horizon, step, n, seed = 2.0, 0.01, 40, 9
        assert _select_engine(t) == engine

        def run(want_times):
            b = _dispatch_batch(t, self.LEVELS, horizon, n, seed, 0, step=step,
                                want_times=want_times)
            assert b.z_half is None  # only for requests with no levels
            return ({z: b.hit[z] for z in self.LEVELS}, b.time, b.z_T, b.nonfinite)

        def level_free():
            # terminal values (two normals per path on expmart and
            # grid_bridge, the grid on mixed_grid) and the minimum of V
            b = _dispatch_batch(t, [], horizon, n, seed, 0, step=step)
            low, sink = lowest_sink(0.5, n)
            full = _dispatch_batch(t, [], horizon, n, seed, 0, step=step, sink=sink)
            return b.z_T, b.z_half, low, full.nonfinite

        reference = {wt: run(wt) for wt in (False, True)}
        free = level_free()
        assert all(np.isfinite(v).all() for v in free[:3])
        hits = reference[True][0]
        assert any(h.any() and not h.all() for h in hits.values())
        assert _same(reference[False][0], hits)
        # terminal values for the paths not ruined at every level; the
        # others may have stopped drawing
        survivors = ~hits[max(self.LEVELS)]
        for _, _, z_T, _ in reference.values():
            assert np.isfinite(z_T[survivors]).all()
        # from a cell or an instant per row at once up to whole paths
        for elems in (16, 112, 1600, 4000, 8192):
            monkeypatch.setattr(estimate, "_CHUNK_ELEMS", elems)
            for key, want in reference.items():
                hit, time, z_T, nonfinite = run(key)
                assert _same((hit, time, nonfinite), (want[0], want[1], want[3])), (elems, key)
                assert _same(z_T[survivors], want[2][survivors]), (elems, key)
            assert _same(level_free(), free), elems

    @pytest.mark.parametrize("engine,t", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
    def test_one_batch_answers_every_level(self, engine, t):
        # One running record decides the levels of a batch at once; each
        # must read as its own single-level batch does, bit for bit.
        def batch(z_list):
            b = _dispatch_batch(t, z_list, 2.0, 40, 9, 0, step=0.01, want_times=True)
            assert b.engine == engine
            return b

        many = batch(self.LEVELS)
        singles = {z: batch([z]) for z in self.LEVELS}
        for z, one in singles.items():
            assert np.array_equal(many.hit[z], one.hit[z])
            assert np.array_equal(many.time[z], one.time[z], equal_nan=True)
        # a path counts as non-finite until it passes the highest level
        assert many.nonfinite == singles[max(self.LEVELS)].nonfinite
        assert all(one.nonfinite <= many.nonfinite for one in singles.values())
        counts = [int(many.hit[z].sum()) for z in self.LEVELS]
        assert counts == sorted(counts, reverse=True) and counts[0] > counts[-1]

    @pytest.mark.parametrize("engine,t", STREAM_CASES[:2], ids=[c[0] for c in STREAM_CASES[:2]])
    def test_terminal_requests_descend_to_two_nodes(self, engine, t, monkeypatch):
        # the top walk, then one midpoint per level down to mid-horizon and
        # to the horizon: 20 + 2 x 10 normals per path at 20,000 steps
        drawn = count_normals(monkeypatch)
        n, horizon, step = 50, 20.0, 1e-3
        est = estimate_negative_prob(t, horizon, n, seed=3, step=step)
        assert est.diagnostics["engine"] == engine
        n_top = -(-round(horizon / step) // (1 << bridge._TOP_LEVEL))
        assert n * n_top < sum(drawn) <= n * (n_top + 2 * bridge._TOP_LEVEL)

    def test_terminal_only_grid_values_are_the_streamed_ones(self):
        t = correlated_gaussian()
        with_levels = _dispatch_batch(t, [0.5], 2.0, 50, 4, 1, step=0.01)
        alone = _dispatch_batch(t, [], 2.0, 50, 4, 1, step=0.01)
        assert alone.engine == "mixed_grid"
        survivors = ~with_levels.hit[0.5]
        assert survivors.any() and not survivors.all()
        assert np.array_equal(alone.z_T[survivors], with_levels.z_T[survivors])
        assert np.isfinite(alone.z_T).all()
        # z_half is Z at grid instant 100 of 200: the terminal value of the
        # same paths over half the horizon
        half = _dispatch_batch(t, [], 1.0, 50, 4, 1, step=0.01)
        assert np.array_equal(alone.z_half, half.z_T)

    def test_ruined_chunks_stop_drawing_when_the_integral_converges(self, monkeypatch):
        # Every path is ruined in its first cell from z = 0; the tail
        # diagnostic reads only survivors, so a path stops drawing once one
        # of its keys is below 0.
        t = drift_xi_brownian_eta()
        assert _select_engine(t) == "grid_bridge"
        assert estimate.z_infinity_converges(t) is Verdict.YES
        drawn = count_normals(monkeypatch)
        n = 20
        est = estimate_ruin(t, 0.0, 20.0, n, seed=1, step=1e-3)
        assert est.point == 1.0
        assert est.diagnostics["tail_near_ruin_fraction"] == 0.0
        # each path draws its 20 top nodes and the midpoints near 0 until
        # one is below it: at most 1% of its 20,000 grid steps
        assert 0 < sum(drawn) <= n * 20_000 / 100

    def test_criterion_6_draws_a_twentieth_of_the_grid(self, monkeypatch):
        # the shape of acceptance criterion 6 at n = 1000: both batches of
        # the formula check draw at most n * n_steps / 20 normals
        t = drift_xi_brownian_eta()
        drawn = count_normals(monkeypatch)
        n, horizon, step = 1000, 20.0, 1e-3
        checks = ruin_formula_checks(t, [0.0, 0.5, 1.0], horizon, n, 1, step=step)
        assert checks[0.5].lhs.n_events > 0
        assert 0 < sum(drawn) <= n * round(horizon / step) / 20

    @pytest.mark.parametrize("case", REFINEMENT_WORK)
    def test_refinement_draws_no_more_than_pinned(self, case, monkeypatch):
        # a faster level pass does less work per cell; it never refines more
        drawn = count_normals(monkeypatch)
        cells = []
        extremes = bridge._BridgeTree.extremes

        def counted(self, ids, k, left, right):
            cells.append(len(k))
            return extremes(self, ids, k, left, right)

        monkeypatch.setattr(bridge._BridgeTree, "extremes", counted)
        run, normals, steps = REFINEMENT_WORK[case]
        run()
        assert 0 < sum(drawn) <= normals
        assert 0 < sum(cells) <= steps

    def test_memory_is_bounded_by_the_blocks(self):
        # The criterion-6 shape: the whole-matrix kernel peaked near 700 MB.
        t = drift_xi_brownian_eta()
        tracemalloc.start()
        try:
            _gaussian_grid_batch(t, [0.0, 0.5, 1.0], 20.0, 1e-3, 1000, 1, 0, "grid_bridge")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6


class TestLevelsPassed:
    """The level index of the bridge's level pass, by comparison."""

    def test_equals_searchsorted(self):
        rng = np.random.default_rng(20261022)
        pool = np.concatenate([np.linspace(-1.5, 1.5, 7), [np.inf, -np.inf]])
        for _ in range(300):
            # 0 to 6 sorted distinct levels, +-inf among them at times
            levels = np.sort(rng.choice(pool, size=rng.integers(0, 7), replace=False))
            # keys: values between and at the levels, NaN and +-inf
            keys = np.concatenate([rng.normal(size=12), rng.choice(pool, 6),
                                   levels, [np.nan, np.inf, -np.inf, -0.0]])
            rng.shuffle(keys)
            for x in (keys, keys[:18].reshape(3, 6), np.asarray(keys[0]), np.asarray(np.nan)):
                got = bridge._levels_passed(levels, x)
                assert got.dtype == np.intp and got.shape == np.shape(x)
                assert np.array_equal(got, np.searchsorted(levels, x))


class TestKeyedLayout:
    """The keyed midpoint layout of ``grid_bridge`` and ``expmart``."""

    def test_keyed_normals_are_bounded_standard_normals(self):
        g = bridge._keyed_normals(3, 0, np.arange(0, 4 * 100_000, 4, dtype=np.uint64))
        assert np.abs(g).max() <= bridge._NORMAL_MAX == pytest.approx(8.5716, abs=1e-4)
        assert stats.kstest(g, "norm").pvalue > 1e-3
        # counters differ from node to node, path to path and stream to stream
        again = bridge._keyed_normals(3, 1, np.arange(0, 4 * 100_000, 4, dtype=np.uint64))
        assert abs(np.corrcoef(g, again)[0, 1]) < 0.02

    @pytest.mark.parametrize("engine,t", [
        ("grid_bridge", drift_xi_brownian_eta()),
        ("expmart", continuous_example_triplet(-0.3)),
    ], ids=["grid_bridge", "expmart"])
    def test_paths_ruined_by_a_horizon_are_ruined_by_a_later_one(self, engine, t):
        # with equal steps, the grid up to T = 20 is the same at T = 40, so
        # are the first crossings before T = 20
        assert _select_engine(t) == engine
        short = ruin_records(t, 0.5, 20.0, 2000, 1, step=0.05)
        long = ruin_records(t, 0.5, 40.0, 2000, 1, step=0.05)
        assert short[0].any() and long[0].sum() >= short[0].sum()
        assert long[0][short[0]].all()
        assert np.array_equal(long[1][short[0]], short[1][short[0]])

    @pytest.mark.parametrize("engine,t,horizon,step", [
        ("grid_bridge", triplet((-0.2, 0.3), ((0.0, 0.0), (0.0, 2.0))), 12.0, 0.007),
        ("expmart", expmart_below(), 5.0, 0.003),
    ], ids=["grid_bridge", "expmart"])
    @pytest.mark.parametrize("want_times", [False, True])
    def test_refinement_finds_every_crossing_of_the_full_grid(
        self, engine, t, horizon, step, want_times
    ):
        # A sink makes the batch compute every node and every bridge
        # extreme; the refined batch must read the same hits and times.
        levels = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0]
        refined = _gaussian_grid_batch(t, levels, horizon, step, 200, 4, 0, engine, want_times)
        full = _gaussian_grid_batch(t, levels, horizon, step, 200, 4, 0, engine, want_times,
                                    sink=lambda ids, chunk: None)
        assert _same((refined.hit, refined.time), (full.hit, full.time))
        assert len({int(h.sum()) for h in refined.hit.values()}) > 3
        survivors = ~refined.hit[2.0]
        assert _same(refined.z_T[survivors], full.z_T[survivors])

    def test_an_overflow_past_the_horizon_leaves_the_horizon_finite(self):
        # xi = -t: the step variance e^{2t} h overflows from t = 355 on, so
        # the top node at t = 512 is not finite, but the nodes up to T = 300
        # are: an overflowed right end does not reach the values left of it.
        t = triplet((-1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
        n, horizon, step = 400, 300.0, 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            tree = bridge._BridgeTree(t, "grid_bridge", horizon, 600, 2, 0, 1.0)
        assert not np.isfinite(tree.top(np.arange(n))[:, 1]).any()
        est = estimate_negative_prob(t, horizon, n, seed=2, step=step)
        assert est.diagnostics["nonfinite_paths"] == 0
        assert est.ci_low <= 0.5 <= est.ci_high
        ruin = estimate_ruin(t, 1.0, horizon, n, seed=2, step=step)
        assert ruin.point == 1.0 and ruin.diagnostics["nonfinite_paths"] == 0

    def test_zero_variance_cells_draw_nothing(self, monkeypatch):
        # xi = 10 t: the step variance e^{-20 t} h is 0 from t = 37.3 on, so
        # the top cell from t = 40.96 and every cell under it draw nothing
        t = triplet((10.0, 1.0), ((0.0, 0.0), (0.0, 1.0)))
        drawn = count_normals(monkeypatch)
        n = 100
        batch = _gaussian_grid_batch(t, [], 50.0, 0.01, n, 3, 0, "grid_bridge")
        assert np.isfinite(batch.z_T).all() and np.isfinite(batch.z_half).all()
        # 4 top nodes, and the midpoints down to mid-horizon
        assert sum(drawn) <= n * (4 + bridge._TOP_LEVEL)
        # Z is constant once the variance is 0 and the drift e^{-10 t} is
        # below the rounding of the drift sum
        far = _gaussian_grid_batch(t, [], 45.0, 0.01, n, 3, 0, "grid_bridge")
        assert np.array_equal(far.z_T, batch.z_T)

    def test_every_step_of_criterion_6_has_its_own_variance(self):
        # e^{-2t} h is below the rounding of a running variance sum by t =
        # 18; each cell sums its own steps, so no cell within the horizon
        # has a zero variance
        with np.errstate(over="ignore", invalid="ignore"):
            tree = bridge._BridgeTree(drift_xi_brownian_eta(), "grid_bridge", 20.0, 20_000,
                                        1, 0, 1.0)
        for j in range(1, bridge._TOP_LEVEL + 1):
            assert (tree.sd[j][: 20_000 >> j] > 0.0).all()


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and np.array_equal(a, b, equal_nan=True)
    return a == b


class TestNonfiniteValues:
    @pytest.mark.parametrize("engine", ["grid_bridge", "mixed_grid"])
    @pytest.mark.parametrize("horizon", [50.0, 800.0])
    def test_certain_ruin_survives_the_overflow(self, engine, horizon):
        t = overflowing(engine)
        assert _select_engine(t) == engine
        est = estimate_ruin(t, 1.0, horizon, 2000, seed=1, step=0.05)
        assert est.point == 1.0
        assert est.diagnostics["nonfinite_paths"] == 0

    @pytest.mark.parametrize("engine", ["grid_bridge", "mixed_grid", "expmart"])
    def test_ruin_does_not_decrease_with_the_horizon(self, engine):
        t = overflowing(engine)
        assert _select_engine(t) == engine
        points = [
            estimate_ruin(t, 1.0, horizon, 500, seed=2, step=0.05).point
            for horizon in (50.0, 200.0, 800.0)
        ]
        assert points == sorted(points)
        assert points[-1] == 1.0

    @pytest.mark.parametrize("want_times", [False, True])
    def test_overflow_before_ruin_is_undetermined(self, want_times):
        # No path reaches -1e300 before exp(-xi) overflows near t = 709.
        t = overflowing("grid_bridge")
        batch = _gaussian_grid_batch(
            t, [0.5, 1e300], 800.0, 0.05, 30, 3, 0, "grid_bridge", want_times
        )
        assert batch.nonfinite == 30
        assert batch.hit[0.5].all()
        with pytest.raises(UndeterminedError, match="nonfinite_paths=30"):
            estimate_ruin(t, 1e300, 800.0, 30, seed=3, step=0.05)
        with pytest.raises(UndeterminedError):
            ruin_records(t, 1e300, 800.0, 30, seed=3, step=0.05)

    @pytest.mark.parametrize("want_times", [False, True])
    def test_grid_kernel_overflow_keeps_the_finite_prefix(self, want_times):
        # xi has a small Brownian part and no jumps: the path values
        # overflow (exp(-xi) near t = 709) and each path is judged on the
        # part of its rounds before its first non-finite value, and the
        # high eta drift keeps every path above the level.
        t = triplet((-1.0, 10.0), ((0.01, 0.0), (0.0, 1.0)))
        assert _select_engine(t) == "mixed_grid"
        batch = _dispatch_batch(t, [0.5], 800.0, 30, 3, 0, step=0.05, want_times=want_times)
        assert batch.nonfinite == 30
        assert not batch.hit[0.5].any()
        with pytest.raises(UndeterminedError, match="nonfinite_paths=30 of 30"):
            estimate_ruin(t, 0.5, 800.0, 30, seed=3, step=0.05)
        assert estimate_ruin(t, 0.5, 50.0, 30, seed=3, step=0.05).point == 0.0

    # numpy warns about the overflow this test provokes
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("engine", ["exact_fv", "mixed_grid"])
    def test_per_path_overflow_before_ruin_is_undetermined(self, engine):
        # Paths with no jump by t = 35 overflow before they are ruined, so
        # they may not count as survivors (the truth by T = 100 is 1 - e^-5).
        t = first_jump_ruins(engine)
        assert _select_engine(t) == engine
        with pytest.raises(UndeterminedError, match="nonfinite_paths="):
            estimate_ruin(t, 1.0, 100.0, 200, seed=1, step=0.05)
        est = estimate_ruin(t, 1.0, 30.0, 200, seed=1, step=0.05)
        assert est.diagnostics["nonfinite_paths"] == 0
        if engine == "exact_fv":
            p = 1.0 - math.exp(-1.5)
            assert abs(est.point - p) <= 4.5 * math.sqrt(p * (1.0 - p) / 200)

    def test_overflow_at_any_instant_counts_for_the_minimum(self):
        # On expmart Z = u0 (e^-xi - 1) overflows mid-horizon and comes
        # back, so a path may end finite after a non-finite Z: the minimum
        # of V counts every such path, not only those with a non-finite z_T.
        t = triplet((0.0, 5e5), ((1e6, -1e6), (-1e6, 1e6)))
        assert _select_engine(t) == "expmart"
        batch = _dispatch_batch(t, [], 1.0, 50, 1, 0, step=0.01, sink=lowest_sink(0.5, 50)[1])
        assert batch.nonfinite == 20
        assert np.count_nonzero(~np.isfinite(batch.z_T)) == 9
        with pytest.raises(UndeterminedError, match="nonfinite_paths=20 of 50"):
            empirical_lower_bound(t, 0.5, 1.0, 50, 1, step=0.01)

    def test_nan_level_is_an_input_error(self):
        t = continuous_example_triplet(0.4)
        with pytest.raises(InvalidModelError, match="level z must be a number"):
            estimate_ruin(t, math.nan, 1.0, 10, seed=1)
        with pytest.raises(InvalidModelError, match="level z must be a number"):
            empirical_lower_bound(t, math.nan, 1.0, 10, seed=1)

    @pytest.mark.parametrize("z", [math.inf, -math.inf])
    def test_infinite_level_is_an_input_error(self, z):
        # no finite-horizon estimate means anything at an infinite level
        t = continuous_example_triplet(0.4)
        with pytest.raises(InvalidModelError, match=f"level z must be finite, got {z}"):
            estimate_ruin(t, z, 1.0, 10, seed=1)
        with pytest.raises(InvalidModelError, match="level z must be finite"):
            empirical_lower_bound(t, z, 1.0, 10, seed=1)

    @pytest.mark.parametrize("engine,t,horizon,step", ENGINE_CASES, ids=CASE_IDS)
    def test_step_beyond_the_horizon_is_an_input_error(self, engine, t, horizon, step):
        # every engine takes PathConfig's rule 0 < step <= horizon
        assert _select_engine(t) == engine
        with pytest.raises(InvalidModelError, match="step must satisfy 0 < step <= horizon"):
            estimate_ruin(t, 0.5, 1.0, 10, seed=1, step=5.0)
        assert estimate_ruin(t, 0.5, 1.0, 10, seed=1, step=1.0).n_paths == 10

    def test_terminal_overflow_is_undetermined(self):
        # The terminal value at T = 800 is NaN (inf * 0 in the drift sum).
        t = overflowing("grid_bridge")
        assert estimate_negative_prob(t, 50.0, 200, seed=4, step=0.05).ci_low > 0.0
        with pytest.raises(UndeterminedError, match="nonfinite_paths=200"):
            estimate_negative_prob(t, 800.0, 200, seed=4, step=0.05)


class TestMinimumRecords:
    @pytest.mark.parametrize("case", CASE_IDS)
    def test_minimum_agrees_with_the_hits(self, case, monkeypatch):
        engine, t = engine_case(case)[:2]
        runs = []
        for threads, elems in (("1", 8192), ("2", 8192), ("1", 112)):
            monkeypatch.setenv("GOU_THREADS", threads)
            monkeypatch.setattr(estimate, "_CHUNK_ELEMS", elems)
            low, sink = lowest_sink(0.5, 600)
            b = _dispatch_batch(t, [0.5], 10.0, 600, 3, 0, step=0.01, sink=sink)
            assert b.engine == engine
            runs.append((low, b.hit[0.5], b.nonfinite))
        assert _same(runs[0], runs[1]) and _same(runs[0], runs[2])
        v_min, hit, nonfinite = runs[0]
        assert nonfinite == 0 and (v_min < 0).any()
        if engine in ("grid_bridge", "expmart"):
            # a bridge-corrected hit needs no negative grid value
            assert hit[v_min < 0].all()
        else:
            assert np.array_equal(hit, v_min < 0)


def _pair_moments(x, y, mean_x, mean_y, var_x, var_y, cov):
    """(estimate, analytic value, standard error) of the means, variances
    and covariance of a sample of pairs."""
    dx, dy = x - mean_x, y - mean_y
    out = []
    for sample, target in ((x, mean_x), (y, mean_y), (dx * dx, var_x), (dy * dy, var_y),
                           (dx * dy, cov)):
        out.append((sample.mean(), target, sample.std(ddof=1) / math.sqrt(len(sample))))
    return out


class TestEndpointLaw:
    # odd step count: half_idx = 50 is not n_steps / 2
    HORIZON, STEP, N = 1.01, 0.01, 20_000

    def test_grid_bridge_pair_is_the_grid_gaussian(self):
        gx, gy, s22 = 0.7, 0.3, 0.8
        t = triplet((gx, gy), ((0.0, 0.0), (0.0, s22)))
        n_steps = 101
        h = self.HORIZON / n_steps
        half = n_steps // 2
        disc = np.exp(-gx * np.arange(n_steps) * h)
        mean = np.concatenate([[0.0], np.cumsum(disc * gy * h)])
        var = np.concatenate([[0.0], np.cumsum(disc * disc * s22 * h)])
        batch = _gaussian_grid_batch(t, [], self.HORIZON, self.STEP, self.N, 5, 1, "grid_bridge")
        for est, target, se in _pair_moments(batch.z_half, batch.z_T, mean[half], mean[-1],
                                             var[half], var[-1], var[half]):
            assert abs(est - target) <= 4.5 * se

    def test_expmart_pair_is_the_grid_lognormal(self):
        c = 0.4
        t = continuous_example_triplet(c)  # Z = e^-xi - 1, xi = c t + B_t
        n_steps = 101
        h = self.HORIZON / n_steps
        th, T = (n_steps // 2) * h, n_steps * h
        m_h, m_T = math.exp(-c * th + th / 2), math.exp(-c * T + T / 2)
        v_h = math.exp(-2 * c * th + 2 * th) - m_h ** 2
        v_T = math.exp(-2 * c * T + 2 * T) - m_T ** 2
        cov = math.exp(-c * (th + T) + (3 * th + T) / 2) - m_h * m_T
        batch = _gaussian_grid_batch(t, [], self.HORIZON, self.STEP, self.N, 6, 1, "expmart")
        for est, target, se in _pair_moments(batch.z_half, batch.z_T, m_h - 1, m_T - 1,
                                             v_h, v_T, cov):
            assert abs(est - target) <= 4.5 * se


class TestJumpFreeEulerLaw:
    """A driver with no jumps and random xi runs on ``mixed_grid``, which
    draws no arrival there: left-point Euler on the grid, each interval's
    normal pair from its keyed uniforms.  Its law is checked against closed
    forms, independent of any path oracle."""

    N = 20_000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_terminal_mean_is_the_euler_mean(self, seed):
        # E Z_T = gy h sum_k E e^{-xi(t_k)} = gy h sum_k e^{t_k (s11/2 - gx)}:
        # the Brownian increment of eta over step k is independent of
        # xi(t_k) and has mean 0.
        t = correlated_gaussian()
        (gx, gy), s11 = t.gamma_tilde, t.sigma[0][0]
        horizon, step = 5.0, 0.01
        batch = _dispatch_batch(t, [], horizon, self.N, seed, 0, step=step)
        assert batch.engine == "mixed_grid"
        n_steps = round(horizon / step)
        t_k = np.arange(n_steps) * (horizon / n_steps)
        mean = gy * (horizon / n_steps) * np.exp(t_k * (0.5 * s11 - gx)).sum()
        se = batch.z_T.std(ddof=1) / math.sqrt(self.N)
        assert abs(batch.z_T.mean() - mean) <= 4.0 * se

    def test_symmetric_eta_is_negative_half_the_time(self):
        # gy = 0 and s12 = 0: eta -> -eta leaves xi and the law of Z_T
        # unchanged and negates Z_T, so P(Z_T < 0) = 1/2.
        t = triplet((0.5, 0.0), ((0.25, 0.0), (0.0, 0.5)))
        est = estimate_negative_prob(t, 5.0, self.N, seed=4)
        assert est.diagnostics["engine"] == "mixed_grid"
        assert abs(est.point - 0.5) <= 4.0 * math.sqrt(0.25 / self.N)


class TestOneRngLayout:
    def test_no_engine_opens_a_generator(self):
        # Every engine draws keyed hash uniforms; only path_rng, kept for
        # outside callers, names numpy's generators.
        names = {"standard_normal", "Generator", "Philox", "SeedSequence", "default_rng"}
        found = []
        for module in (simulate, estimate, events, bridge):
            tree = ast.parse(Path(module.__file__).read_text())
            allowed = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef) and fn.name == "path_rng"
                       for node in ast.walk(fn)}
            for node in ast.walk(tree):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in names and id(node) not in allowed:
                    found.append((module.__name__, getattr(node, "lineno", None), name))
        assert found == []


def box_density_triplet():
    return LevyTriplet2D(
        (0.3, 0.1), ((0.0, 0.0), (0.0, 0.0)),
        density_from_json({"kind": "uniform_box", "params": {"c": 0.3},
                           "box": [0.5, 1.5, -1.5, 0.5]}),
    )


class TestDensityTier:
    Z, HORIZON, N, SEED, STEP = 0.5, 5.0, 20, 3, 0.05

    def test_records_match_per_path_simulation(self):
        t = box_density_triplet()
        assert _select_engine(t) == "mixed_grid"
        args = (t, self.Z, self.HORIZON, self.N, self.SEED, self.STEP)
        est = estimate_ruin(*args)
        hit, times, values, cont = ruin_records(*args)
        assert int(hit.sum()) == est.n_events > 0
        cfg = PathConfig(self.HORIZON, self.STEP, self.SEED)
        for i in range(self.N):
            fp = first_passage(simulate_pair(t, cfg, i), self.Z)
            assert hit[i] == fp.hit
            assert np.array_equal([times[i], values[i]], [fp.time, fp.v_at_hit], equal_nan=True)
            assert cont[i] == fp.continuous_crossing

    def test_jump_table_is_built_once_per_batch(self):
        simulate._density_jump_table.cache_clear()
        estimate_ruin(box_density_triplet(), self.Z, self.HORIZON, self.N, self.SEED,
                      step=self.STEP)
        assert simulate._density_jump_table.cache_info().misses == 1

    def test_formula_checks_build_one_jump_table_for_both_batches(self):
        # the law of the discounted integral and the ruin batch run on one
        # measure, so they share its table
        simulate._density_jump_table.cache_clear()
        checks = ruin_formula_checks(box_density_triplet(), [self.Z], self.HORIZON, self.N,
                                     self.SEED, step=self.STEP)
        assert simulate._density_jump_table.cache_info().misses == 1
        assert checks[self.Z].lhs.diagnostics["engine"] == "mixed_grid"

    def test_a_density_that_is_no_named_family_is_refused(self):
        # it used to fail on a missing box attribute, with no package error
        t = LevyTriplet2D((0.3, 0.1), ((0.0, 0.0), (0.0, 0.0)),
                          LineDensity("y", lambda v: 1.0, 0.5, 1.5))
        with pytest.raises(NotSupportedError, match="named density family"):
            estimate_ruin(t, self.Z, self.HORIZON, self.N, self.SEED, step=self.STEP)


class TestNegativeProb:
    def test_driftless_brownian_is_half(self):
        est = estimate_negative_prob(brownian_eta(), 1.0, 20_000, seed=3)
        assert abs(est.point - 0.5) <= 3.0 * math.sqrt(0.25 / 20_000)

    def test_positive_drift_never_negative(self):
        est = estimate_negative_prob(triplet((0.0, 1.0)), 1.0, 500, seed=4)
        assert est.n_events == 0

    def test_jump_example_positive(self):
        est = estimate_negative_prob(jump_example_triplet(1.0, 1.0), 5.0, 10_000, seed=5)
        assert est.ci_low > 0.0

    def test_non_subordinator_eta_triggers_negative_mass(self, corpus):
        # The empirical face of the sign theorem on a handful of corpus
        # drivers whose second component is not a subordinator.
        from gouruin.classify import is_subordinator_1d
        from gouruin.model import marginal_eta

        tested = 0
        for t in corpus:
            if tested >= 5:
                break
            if is_subordinator_1d(marginal_eta(t)).verdict is not Verdict.NO:
                continue
            tested += 1
            est = estimate_negative_prob(t, 1.0, 20_000, seed=31, step=0.01)
            assert est.ci_low > 0.0, t
        assert tested == 5


class TestZinfCdf:
    def test_gaussian_limit_law(self):
        # xi = t, eta Brownian: the limit is centered normal with variance
        # 1/2 (time-change variance integral).
        t = drift_xi_brownian_eta()
        cdf = estimate_Zinf_cdf(t, 20.0, 30_000, seed=8, step=0.01)
        target = stats.norm(0.0, math.sqrt(0.5))
        assert ks_distance(cdf, target.cdf) <= 0.012
        assert cdf.diagnostics["ks_T_vs_half"] < 0.01

    def test_pure_drift_limit(self):
        b = 1.7
        t = triplet((1.0, b))
        cdf = estimate_Zinf_cdf(t, 30.0, 200, seed=9)
        assert np.allclose(cdf.values, b, atol=b * 1e-9 + 1e-9)

    def test_degenerate_limit_is_constant(self):
        # eta = -k W with positive xi drift: the limit sits at k.
        from gouruin.model import Atoms1D, MarginalTriplet, marginal_eta, w_transform
        from oracles import from_marginals, is_degenerate

        k, x, rate = 2.0, 0.9, 1.0
        w = math.exp(-x) - 1.0
        xi_pair = triplet((0.5, 0.0), jumps=[(x, 0.0, rate)])
        m_xi = MarginalTriplet(0.5, 0.0, Atoms1D([(x, rate)]))
        g_w = marginal_eta(w_transform(xi_pair)).gamma
        # 1-d drift of -k W: scale the uncompensated drift, then re-add the
        # compensation of the scaled jump only if it stays small.
        b_w = g_w - (w * rate if abs(w) < 1.0 else 0.0)
        g_eta = -k * b_w + (-k * w * rate if abs(k * w) < 1.0 else 0.0)
        m_eta = MarginalTriplet(g_eta, 0.0, Atoms1D([(-k * w, rate)]))
        t = from_marginals(m_xi, m_eta, 0.0, atoms((x, -k * w, rate)))
        assert is_degenerate(t) == pytest.approx(k, rel=1e-9)
        cdf = estimate_Zinf_cdf(t, 60.0, 300, seed=10)
        assert np.allclose(cdf.values, k, atol=1e-3)

    def test_refuses_divergent_driver(self):
        t = triplet((-1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)))
        with pytest.raises(NotApplicableError):
            estimate_Zinf_cdf(t, 10.0, 100, seed=1)


class TestRuinFormula:
    def test_closed_form_oracle_small(self):
        t = drift_xi_brownian_eta()
        n, T, step = 20_000, 20.0, 2e-3
        g = estimate_Zinf_cdf(t, T, n, seed=12, step=step)
        z = 0.5
        oracle = 2.0 * stats.norm.cdf(-z * math.sqrt(2.0))
        check = validate_ruin_formula(t, z, T, n, seed=12, step=step, g_cdf=g)
        assert check.lhs.ci_low <= oracle <= check.lhs.ci_high
        assert check.rhs.ci_low <= oracle <= check.rhs.ci_high
        assert check.consistent

    def test_zero_level_is_certain_ruin(self):
        t = drift_xi_brownian_eta()
        check = validate_ruin_formula(t, 0.0, 10.0, 3000, seed=14, step=5e-3)
        assert check.lhs.point == 1.0
        assert check.rhs.point == pytest.approx(1.0, abs=0.05)
        assert check.consistent

    def test_no_events_is_trivially_consistent(self):
        # lambda > c so the discounted integral converges (mean drift up).
        t = jump_example_triplet(0.5, 1.0)
        check = validate_ruin_formula(t, 3.0, 100.0, 2000, seed=15)
        assert check.lhs.n_events == 0
        assert check.consistent

    def test_jump_overshoots_enter_the_denominator(self):
        # Below e/(e-1) every ruin of this driver is an overshoot by a jump,
        # so the denominator is the mean of G(-V at ruin) over the ruined
        # paths of ruin_records, with G the default law of Z at the horizon.
        t = jump_example_triplet(0.5, 1.0)
        z, horizon, n, seed = 0.5, 50.0, 2000, 1
        check = validate_ruin_formula(t, z, horizon, n, seed=seed)
        hit, _, values, cont = ruin_records(t, z, horizon, n, seed)
        assert check.lhs.n_events == int(hit.sum()) == 1566
        assert not cont[hit].any()
        g = estimate_Zinf_cdf(t, horizon, n, seed)
        assert check.rhs.diagnostics["denominator"] == float(np.mean(g(-values[hit])))

    def test_few_events_refused(self):
        t = drift_xi_brownian_eta()
        # z high enough that only a handful of paths ruin
        check = validate_ruin_formula(t, 2.2, 10.0, 800, seed=16, step=5e-3)
        if 0 < check.lhs.n_events < 30:
            assert check.consistent is None
            assert "undetermined" in check.diagnostics["note"]


class TestEmpiricalLowerBound:
    def test_continuous_example_fixed_point(self):
        # The lower-bound function equals 1 at the fixed point.  The driver
        # runs on expmart, whose grid values are exact: V = e^xi (1 + Z)
        # is 1 at every instant, up to rounding, whatever the step.
        from gouruin.classify import delta

        t = continuous_example_triplet(0.2)
        assert delta(t, 1.0) == 1.0
        for h in (0.02, 0.005, 0.00125):
            bound = empirical_lower_bound(t, 1.0, 1.0, 50, seed=17, step=h)
            assert abs(bound - 1.0) <= 1e-12

    def test_jump_example_inside_feasible_interval(self):
        from gouruin.classify import delta

        t = jump_example_triplet(1.0, 1.0)
        for z in (1.8, 2.0):
            assert delta(t, z) == pytest.approx(z, abs=1e-12)
            bound = empirical_lower_bound(t, z, 100.0, 200, seed=18)
            assert bound >= z - 1e-9

    def test_exact_fv_value_is_pinned(self):
        # Recorded from the keyed oracle of oracles.py (keyed_exact_path),
        # which gives this minimum bit for bit.  At z = 1.8 every state
        # after t = 0 lies above z (the lowest at 1.8009550186366345), so
        # the start state V = z is the bound.
        t = jump_example_triplet(1.0, 1.0)
        assert empirical_lower_bound(t, 0.5, 50.0, 100, seed=21) == -244036.67043198747
        assert empirical_lower_bound(t, 1.8, 100.0, 100, seed=18) == 1.8

    @pytest.mark.parametrize("engine,t,horizon,step", ENGINE_CASES, ids=CASE_IDS)
    def test_bound_is_at_most_z(self, engine, t, horizon, step):
        # V = z at t = 0 on every engine, so no bound lies above z; on
        # exact_fv at z = 1.8 every later state lies above z
        assert _select_engine(t) == engine
        for seed in (1, 2, 3):
            for z in (-1.0, 0.5, 1.8, 4.0):
                assert empirical_lower_bound(t, z, 2.0, 20, seed, step=step) <= z

    def test_mixed_grid_value_is_pinned(self):
        # Recorded from the keyed oracle of oracles.py (keyed_euler_path:
        # one clock at the total rate, then each arrival's atom, and each
        # interval's normal pair), which gives this minimum bit for bit.
        t = engine_case("mixed_grid")[1]
        assert empirical_lower_bound(t, 0.5, 3.0, 50, seed=5, step=0.02) == -15.890276399433512

    def test_exact_fv_horizon_state_past_the_float_range(self):
        # xi reaches about 1000 at T = 1000, so e^xi at the horizon is past
        # the float range; V is +inf there and the minimum comes from
        # earlier states.
        t = triplet((1.0, 0.5), jumps=[(0.3, -0.5, 1.0)])
        assert empirical_lower_bound(t, 0.5, 1000.0, 10, seed=1) == empirical_lower_bound(
            t, 0.5, 100.0, 10, seed=1
        )

    def test_overflow_makes_the_bound_undetermined(self):
        # exp(-xi) overflows near t = 709, before the horizon T = 800.
        t = overflowing("grid_bridge")
        assert math.isfinite(empirical_lower_bound(t, 1.0, 50.0, 20, seed=1, step=0.05))
        with pytest.raises(UndeterminedError, match="nonfinite_paths=20 of 20"):
            empirical_lower_bound(t, 1.0, 800.0, 20, seed=1, step=0.05)

    def test_exact_fv_bound_is_above_delta_on_the_corpus(self):
        # exact_fv has no discretisation and monitors every state where V
        # can attain its minimum, so no path goes below the lowest
        # reachable level delta(z).
        from gouruin.acceptance import random_atom_triplet
        from gouruin.classify import delta

        rng = np.random.default_rng(1234)
        drivers = []
        while len(drivers) < 200:
            t = random_atom_triplet(rng)
            if _select_engine(t) == "exact_fv":
                drivers.append(t)
        checks = 0
        for k, t in enumerate(drivers):
            for z in (-1.0, 0.5, 2.0):
                d = delta(t, z)
                if math.isfinite(d):
                    bound = empirical_lower_bound(t, z, 20.0, 20, seed=k)
                    assert bound >= d - 1e-12 * max(1.0, abs(d)), (k, z, d, bound)
                    checks += 1
        assert checks >= 100

    def test_unbounded_below_when_no_level_is_feasible(self):
        t = triplet(sigma=((1.0, 0.0), (0.0, 1.0)))
        bound = empirical_lower_bound(t, 1.0, 1000.0, 20, seed=19, step=0.25)
        assert bound < -10.0


class TestEmpiricalCDFType:
    def test_right_continuity_and_range(self):
        cdf = EmpiricalCDF([1.0, 2.0, 2.0, 3.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25
        assert cdf(2.0) == 0.75
        assert cdf(3.0) == 1.0
        assert cdf(4.0) == 1.0

    def test_two_sample_distance(self):
        a = EmpiricalCDF([0.0, 1.0])
        b = EmpiricalCDF([10.0, 11.0])
        assert a.ks_two_sample(b) == 1.0


MIXED_ATOMS = LevyTriplet2D(
    (0.5, 0.3), ((0.25, 0.1), (0.1, 0.5)), atoms((0.3, -0.5, 1.0), (-0.2, 0.4, 0.5))
)


class TestPerPathEngineChunks:
    @pytest.mark.parametrize("engine", ["exact_fv", "mixed_grid"])
    def test_one_batch_answers_fifty_levels(self, engine):
        # The levels of one batch are decided from its running minimum at
        # once; each must read as its own single-level batch does.
        if engine == "exact_fv":
            t = jump_example_triplet(1.0, 1.0)

            def batch(z_list):
                return estimate._fv_batch(t, z_list, 20.0, 300, 7, 0, want_times=True)
        else:
            def batch(z_list):
                return estimate._mixed_batch(
                    MIXED_ATOMS, z_list, 5.0, 0.05, 200, 7, 0, want_times=True
                )
        levels = [float(z) for z in np.linspace(0.02, 2.0, 50)]
        many = batch(levels)
        for z in levels:
            one = batch([z])
            for field in ("hit", "continuous"):
                assert np.array_equal(getattr(many, field)[z], getattr(one, field)[z])
            for field in ("time", "v_hit"):
                assert np.array_equal(getattr(many, field)[z], getattr(one, field)[z],
                                      equal_nan=True)
        counts = [int(many.hit[z].sum()) for z in levels]
        assert counts == sorted(counts, reverse=True) and counts[0] > counts[-1]

    @staticmethod
    def record_rounds(monkeypatch, name):
        """Wrap the round generator ``name`` of ``events``; returns the
        list of (path ids, chunk) it yields."""
        rounds, original = [], getattr(events, name)

        def recorded(*args):
            for ids, chunk in original(*args):
                rounds.append((ids, chunk))
                yield ids, chunk

        monkeypatch.setattr(events, name, recorded)
        return rounds

    def test_long_mixed_rows_march_in_rounds_within_the_element_budget(self, monkeypatch):
        # T = 2000 at step 0.01: 200 001 grid instants per row, far past the
        # element budget, so the rows march in rounds, each within it.
        rounds = self.record_rounds(monkeypatch, "_mixed_rounds")
        estimate._mixed_batch(MIXED_ATOMS, [], 2000.0, 0.01, 3, 1, 0)
        assert len(rounds) > 50
        assert all(chunk.Z.size <= estimate._CHUNK_ELEMS for _, chunk in rounds)
        assert all(np.array_equal(ids, [0, 1, 2]) for ids, _ in rounds)

    def test_exact_chunk_arrays_stay_within_the_element_budget(self, monkeypatch):
        # A round holds each live row's next arrivals, one column per
        # arrival and one for the carry, within the budget; ruined rows
        # leave, so later rounds hold fewer rows, each of more arrivals.
        rounds = self.record_rounds(monkeypatch, "_fv_rounds")
        estimate._fv_batch(jump_example_triplet(1.0, 1.0), [0.5], 1000.0, 100, 1, 0)
        assert all(chunk.tau.shape[0] * (chunk.tau.shape[1] + 1) <= estimate._CHUNK_ELEMS
                   for _, chunk in rounds)
        rows = [len(ids) for ids, _ in rounds]
        assert rows[0] == 100 and rows[-1] < rows[0]
        assert rounds[-1][1].tau.shape[1] > rounds[0][1].tau.shape[1]


# Multi-atom drivers, whose atom draws follow the arrival clocks, so a path
# is coherent in the horizon only if each draw has its own counter: exact_fv
# with two atoms, and the mixed driver of the mc_events benchmark workload.
# The driver with no jumps and random xi runs on mixed_grid too.
TWO_ATOM_FV = triplet((0.2, 0.1), jumps=[(0.3, -0.5, 1.0), (-0.2, 0.4, 0.5)])
EVENT_CASES = [("exact_fv", TWO_ATOM_FV, None), ("mixed_grid", MIXED_ATOMS, 0.05),
               ("mixed_grid", correlated_gaussian(), 0.05)]
EVENT_IDS = ["exact_fv", "mixed_grid", "mixed_grid_no_jumps"]


class TestKeyedEventEngines:
    """exact_fv and mixed_grid draw every arrival, atom and normal at a
    keyed counter, and march the live paths of a range in rounds."""

    @pytest.mark.parametrize("engine,t,step", EVENT_CASES, ids=EVENT_IDS)
    def test_hits_by_a_shorter_horizon_are_hits_by_a_longer_one(self, engine, t, step):
        # With an equal step a path is the same up to the shorter horizon,
        # and so are its first crossings there.
        def hits(horizon):
            batch = _dispatch_batch(t, [0.5], horizon, 2000, 1, 0, step=step, want_times=True)
            assert batch.engine == engine
            return batch.hit[0.5], batch.time[0.5]

        (short, t_short), (long, t_long) = hits(20.0), hits(40.0)
        assert short.sum() > 100
        assert not (short & ~long).any()
        assert np.array_equal(t_long[short], t_short[short])

    @pytest.mark.parametrize("engine,t,step", EVENT_CASES, ids=EVENT_IDS)
    def test_results_depend_only_on_the_seed_stream_and_n(self, engine, t, step, monkeypatch):
        # Rounds of one row and one instant, narrow and wide rounds, one or
        # two workers, with and without times: the same bits.
        levels, n = [0.25, 0.5, 1.0], 60
        horizon = 6.0 if engine == "exact_fv" else 2.0

        def run(want_times):
            b = _dispatch_batch(t, levels, horizon, n, 3, 0, step=step, want_times=want_times)
            free = _dispatch_batch(t, [], horizon, n, 3, 0, step=step)
            low, sink = lowest_sink(0.5, n)
            full = _dispatch_batch(t, [], horizon, n, 3, 0, step=step, sink=sink)
            return ([b.hit[z].tobytes() for z in levels] + [b.v_hit[z].tobytes() for z in levels]
                    + [b.time[z].tobytes() if want_times else None for z in levels]
                    + [b.z_T.tobytes(), b.nonfinite, free.z_T.tobytes(), free.z_half.tobytes(),
                       low.tobytes(), full.z_T.tobytes(), full.nonfinite])

        reference = {wt: run(wt) for wt in (False, True)}
        assert reference[False][:3] == reference[True][:3]
        hits = _dispatch_batch(t, levels, horizon, n, 3, 0, step=step).hit
        assert all(h.any() and not h.all() for h in hits.values())
        for elems, rows, threads, want_times in ((1, 1, "1", True), (7, 3, "2", False),
                                                 (64, 8, "1", True), (8192, 128, "2", False)):
            monkeypatch.setattr(estimate, "_CHUNK_ELEMS", elems)
            monkeypatch.setattr(estimate, "_PATH_BLOCK", rows)
            monkeypatch.setenv("GOU_THREADS", threads)
            assert run(want_times) == reference[want_times], (elems, rows, threads)

    def test_ruined_paths_stop_drawing(self, monkeypatch):
        # At z = 0.25 most mixed paths are ruined early: they leave the
        # rounds, so the batch draws far fewer normals than their grids hold.
        drawn = count_normals(monkeypatch)
        n, horizon, step = 200, 10.0, 0.01
        est = estimate_ruin(MIXED_ATOMS, 0.25, horizon, n, 1, step=step)
        assert est.diagnostics["engine"] == "mixed_grid" and est.point > 0.5
        assert 0 < sum(drawn) < 0.7 * 2 * n * round(horizon / step)
        drawn.clear()
        estimate_negative_prob(MIXED_ATOMS, horizon, n, 1, step=step)
        assert sum(drawn) >= 2 * n * round(horizon / step)

    def test_exact_fv_covers_the_integral_equation(self):
        # psi_inf of jump_example(1, 1) from the integral equation (ROADMAP
        # item 13); by T = 50 the finite-horizon ruin probability is within
        # 1e-3 of it.
        t = jump_example_triplet(1.0, 1.0)
        n = 20_000
        batch = _dispatch_batch(t, [0.5, 1.0, 1.3], 50.0, n, 1, 0)
        for z, psi in ((0.5, 0.44565), (1.0, 0.16850), (1.3, 0.041011)):
            lo, hi = wilson_interval(int(batch.hit[z].sum()), n)
            assert lo <= psi <= hi, (z, lo, hi)


class TestCounterFields:
    """A keyed counter holds the path in 32 bits and an arrival or interval
    index in 29; requests that could overflow them are refused at the input
    check, before any array of their size exists."""

    def test_too_many_paths_are_refused(self, monkeypatch):
        monkeypatch.setattr(estimate, "_BatchResult", None)  # no batch is started
        for t in (jump_example_triplet(1.0, 1.0), MIXED_ATOMS, drift_xi_brownian_eta()):
            with pytest.raises(InvalidModelError, match=f"cap is {simulate.MAX_PATHS}"):
                estimate_ruin(t, 0.5, 1.0, 2**32, 1, step=0.1)
        with pytest.raises(InvalidModelError, match="cap is"):
            simulate_pair(MIXED_ATOMS, PathConfig(1.0, 0.1, 1), path_index=2**32)

    @pytest.mark.parametrize("t,horizon,step", [
        (triplet((0.2, 0.1), jumps=[(0.3, -0.5, 2.0**20)]), 2.0**9, None),  # 2^29 arrivals
        (triplet((0.2, 0.1), ((0.0, 0.0), (0.0, 1.0)), [(0.3, -0.5, 2.0**27)]), 3.0, 1e-6),
    ], ids=["exact_fv_arrivals", "mixed_grid_instants"])
    def test_event_counts_past_the_index_field_are_refused(self, t, horizon, step, monkeypatch):
        monkeypatch.setattr(estimate, "_event_batch", None)  # no simulation is started
        with pytest.raises(InvalidModelError, match=f"cap is {simulate.MAX_EVENTS}"):
            estimate_ruin(t, 0.5, horizon, 10, 1, step=step)
        with pytest.raises(InvalidModelError, match="cap is"):
            simulate_pair(t, PathConfig(horizon, step or horizon / 100, 1))
