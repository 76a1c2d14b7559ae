"""Monte Carlo estimators: engines, intervals, the ruin-formula check, and
reproducibility contracts."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gouruin.classify import DecisionKind, Verdict, no_ruin_threshold
from gouruin.errors import NotApplicableError, UndeterminedError
from gouruin.estimate import (
    EmpiricalCDF,
    _dispatch_batch,
    _gaussian_grid_batch,
    _select_engine,
    empirical_lower_bound,
    estimate_negative_prob,
    estimate_ruin,
    estimate_Zinf_cdf,
    ruin_records,
    validate_ruin_formula,
    wilson_interval,
    worker_count,
)
from gouruin import estimate, simulate
from gouruin.model import BoxDensity, FiniteAtomSet, JumpAtom, LevyTriplet2D, rigid_level
from gouruin.presets import continuous_example_triplet, jump_example_triplet
from gouruin.simulate import (
    PathConfig,
    first_passage,
    fv_first_passage,
    path_rng,
    simulate_pair,
)

E = math.e


def atoms(*tuples):
    return FiniteAtomSet([JumpAtom(x, y, r) for x, y, r in tuples])


def triplet(gamma=(0.0, 0.0), sigma=((0.0, 0.0), (0.0, 0.0)), jumps=()):
    return LevyTriplet2D(gamma, sigma, atoms(*jumps))


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


# (engine, driver, horizon, step), one driver per engine
ENGINE_CASES = [
    ("exact_fv", jump_example_triplet(1.0, 1.0), 20.0, None),
    ("expmart", continuous_example_triplet(0.4), 5.0, 0.01),
    ("grid_bridge", drift_xi_brownian_eta(), 5.0, 0.01),
    ("grid", correlated_gaussian(), 5.0, 0.01),
    (
        "mixed_grid",
        triplet((0.5, 0.3), ((0.25, 0.1), (0.1, 0.5)), [(0.3, -0.5, 1.0), (-0.2, 0.4, 0.5)]),
        3.0,
        0.02,
    ),
]


def engine_case(engine):
    return next(case for case in ENGINE_CASES if case[0] == engine)


def grid_Z(t, engine, seed, i, n_steps, h):
    """Grid values of the discounted integral on path i, rebuilt from the
    per-path normals of a Gaussian grid engine."""
    (gx, gy), (s11, s12), s22 = t.gamma_tilde, t.sigma[0], t.sigma[1][1]
    times = np.arange(n_steps + 1) * h
    rng = path_rng(seed, i, 0)
    if engine == "grid_bridge":
        normals = rng.standard_normal(n_steps)
        inc = np.exp(-gx * times[:-1]) * (gy * h + math.sqrt(s22 * h) * normals)
    else:
        normals = rng.standard_normal((n_steps, 2))
        xi = gx * times + np.concatenate([[0.0], np.cumsum(math.sqrt(s11 * h) * normals[:, 0])])
        if engine == "expmart":
            return (-s12 / s11) * np.expm1(-xi)
        l21 = s12 / math.sqrt(s11)
        l22 = math.sqrt(s22 - l21 * l21)
        eta_inc = gy * h + (l21 * normals[:, 0] + l22 * normals[:, 1]) * math.sqrt(h)
        inc = np.exp(-xi[:-1]) * eta_inc
    return np.concatenate([[0.0], np.cumsum(inc)])


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
    @pytest.mark.parametrize("engine,t,horizon,step", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
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

    @pytest.mark.parametrize("engine", ["expmart", "grid_bridge", "grid"])
    def test_grid_time_not_after_first_negative_grid_value(self, engine):
        _, t, horizon, step = engine_case(engine)
        z, n, seed = 0.5, 200, 3
        n_steps = int(round(horizon / step))
        h = horizon / n_steps
        grid = np.arange(n_steps + 1) * h
        hit, times, _, _ = ruin_records(t, z, horizon, n, seed, step=step)
        below_somewhere = 0
        for i in range(n):
            below = z + grid_Z(t, engine, seed, i, n_steps, h) < 0.0
            if engine == "grid":
                assert hit[i] == below.any()
            if below.any():
                below_somewhere += 1
                first = grid[np.argmax(below)]
                assert hit[i] and times[i] <= first
                if engine == "grid":
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
        passages = [fv_first_passage(t, z, horizon, path_rng(seed, i, 0)) for i in range(n)]
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
    if engine == "grid":
        return triplet((-1.0, 0.0), ((0.25, 0.0), (0.0, 1.0)))
    return triplet((-1.0, -1.5), ((1.0, 1.0), (1.0, 1.0)))  # expmart, u0 = -1


def first_jump_ruins(engine):
    """xi falls at rate 20, so exp(-xi) overflows near t = 35; the one jump
    type (rate 0.05) ruins from z = 1 whenever it comes."""
    s22 = 0.01 if engine == "mixed_grid" else 0.0
    return triplet((-20.0, 1.0), ((0.0, 0.0), (0.0, s22)), [(0.5, -1.0, 0.05)])


# (driver, seed, n): sha256 of the hit and time arrays at levels 0, 0.5, 1
# (horizon 5, step 0.01), as the whole-matrix kernel computed them.
GOLDEN = [
    (drift_xi_brownian_eta(), 5, 300,
     "ad432c81f795e4b8e763051bc1f80acd979e2f707cd60b3478250b219ae67068"),
    (continuous_example_triplet(0.4), 6, 300,
     "37594184e3716f511d82c63ded7f3da120e17b805b3ffd52215de23f18d6422a"),
    (expmart_below(), 7, 300,
     "a848ab89e2de99db1edb451eb5c243eceb647173694c4f2ed321948d6bc4ed34"),
    (correlated_gaussian(), 8, 300,
     "e263aed0048182bdfe1dd622b5c148413dbd2f5288d82591b5152c45f2e8d614"),
]

STREAM_CASES = [
    ("grid_bridge", drift_xi_brownian_eta()),
    ("expmart", continuous_example_triplet(0.4)),
    ("expmart", expmart_below()),
    ("grid", correlated_gaussian()),
]


class TestStreamedGridKernel:
    LEVELS = [0.0, 0.25, 0.5, 1.0]

    @pytest.mark.parametrize("t,seed,n,digest", GOLDEN,
                             ids=[f"{_select_engine(g[0])}-{g[1]}" for g in GOLDEN])
    def test_paths_match_the_pinned_digests(self, t, seed, n, digest):
        batch = _gaussian_grid_batch(
            t, [0.0, 0.5, 1.0], 5.0, 0.01, n, seed, 0, _select_engine(t), True
        )
        d = hashlib.sha256()
        for z in (0.0, 0.5, 1.0):
            d.update(batch.hit[z].tobytes())
            d.update(batch.time[z].tobytes())
        assert d.hexdigest() == digest

    @pytest.mark.parametrize("engine,t", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
    def test_block_sizes_do_not_change_the_paths(self, engine, t, monkeypatch):
        horizon, step, n, seed = 2.0, 0.01, 40, 9
        n_steps = 200
        assert _select_engine(t) == engine

        def run(want_times):
            b = _gaussian_grid_batch(
                t, self.LEVELS, horizon, step, n, seed, 0, engine, want_times
            )
            return ({z: b.hit[z] for z in self.LEVELS}, b.time, b.z_T, b.z_half, b.nonfinite)

        reference = {wt: run(wt) for wt in (False, True)}
        hits = reference[True][0]
        assert any(h.any() and not h.all() for h in hits.values())
        assert _same(reference[False][0], hits)
        # terminal values for the paths not ruined at every level, NaN for
        # the others, which may have stopped drawing
        survivors = ~hits[max(self.LEVELS)]
        for _, _, z_T, z_half, _ in reference.values():
            for values in (z_T, z_half):
                assert np.isfinite(values[survivors]).all()
                assert np.isnan(values[~survivors]).all()
        for rows in (1, 16, 64):
            for steps in (1, 7, 1000, n_steps):
                monkeypatch.setattr(estimate, "_GRID_ROWS", rows)
                monkeypatch.setattr(estimate, "_GRID_STEPS", steps)
                for key, want in reference.items():
                    assert _same(run(key), want), (rows, steps, key)

    def test_terminal_only_grid_values_are_the_streamed_ones(self):
        t = correlated_gaussian()
        with_levels = _gaussian_grid_batch(t, [0.5], 2.0, 0.01, 50, 4, 1, "grid")
        alone = _gaussian_grid_batch(t, [], 2.0, 0.01, 50, 4, 1, "grid")
        survivors = ~with_levels.hit[0.5]
        assert survivors.any() and not survivors.all()
        assert np.array_equal(alone.z_T[survivors], with_levels.z_T[survivors])
        assert np.array_equal(alone.z_half[survivors], with_levels.z_half[survivors])
        assert np.isfinite(alone.z_T).all() and np.isnan(with_levels.z_T[~survivors]).all()

    def test_ruined_chunks_stop_drawing_when_the_integral_converges(self, monkeypatch):
        # Every path is ruined in its first cell from z = 0; the tail
        # diagnostic reads only survivors, so no path draws past its block.
        t = drift_xi_brownian_eta()
        assert _select_engine(t) == "grid_bridge"
        assert estimate.z_infinity_converges(t) is Verdict.YES
        drawn = []

        class Counted:
            def __init__(self, g):
                self.g = g

            def standard_normal(self, size=None, out=None):
                drawn.append(np.size(out) if out is not None else int(np.prod(size or 1)))
                return self.g.standard_normal(size, out=out)

        rng = estimate.path_rng
        monkeypatch.setattr(estimate, "path_rng", lambda *a: Counted(rng(*a)))
        n = 20
        est = estimate_ruin(t, 0.0, 20.0, n, seed=1, step=1e-3)
        assert est.point == 1.0
        assert est.diagnostics["tail_near_ruin_fraction"] == 0.0
        assert 0 < sum(drawn) <= n * estimate._GRID_STEPS

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


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and np.array_equal(a, b, equal_nan=True)
    return a == b


class TestNonfiniteValues:
    @pytest.mark.parametrize("engine", ["grid_bridge", "grid"])
    @pytest.mark.parametrize("horizon", [50.0, 800.0])
    def test_certain_ruin_survives_the_overflow(self, engine, horizon):
        t = overflowing(engine)
        assert _select_engine(t) == engine
        est = estimate_ruin(t, 1.0, horizon, 2000, seed=1, step=0.05)
        assert est.point == 1.0
        assert est.diagnostics["nonfinite_paths"] == 0

    @pytest.mark.parametrize("engine", ["grid_bridge", "grid", "expmart"])
    def test_ruin_does_not_decrease_with_the_horizon(self, engine):
        t = overflowing(engine)
        assert _select_engine(t) == engine
        points = [
            estimate_ruin(t, 1.0, horizon, 500, seed=2, step=0.05).point
            for horizon in (50.0, 200.0, 800.0)
        ]
        assert points == sorted(points)
        assert points[-1] == 1.0

    def test_overflow_before_ruin_is_undetermined(self):
        # No path reaches -1e300 before exp(-xi) overflows near t = 709.
        t = overflowing("grid_bridge")
        batch = _gaussian_grid_batch(t, [0.5, 1e300], 800.0, 0.05, 30, 3, 0, "grid_bridge")
        assert batch.nonfinite == 30
        assert batch.hit[0.5].all()
        with pytest.raises(UndeterminedError, match="nonfinite_paths=30"):
            estimate_ruin(t, 1e300, 800.0, 30, seed=3, step=0.05)
        with pytest.raises(UndeterminedError):
            ruin_records(t, 1e300, 800.0, 30, seed=3, step=0.05)

    def test_grid_kernel_overflow_keeps_the_finite_prefix(self):
        # With xi's small Brownian part the bridge variance stays finite, so
        # the path values overflow first (exp(-xi) near t = 709): each path
        # is judged on the part of the block before its first non-finite
        # value, and the high eta drift keeps every path above the level.
        t = triplet((-1.0, 10.0), ((0.01, 0.0), (0.0, 1.0)))
        assert _select_engine(t) == "grid"
        batch = _gaussian_grid_batch(t, [0.5], 800.0, 0.05, 30, 3, 0, "grid")
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

    def test_terminal_overflow_is_undetermined(self):
        # The terminal value at T = 800 is NaN (inf * 0 in the drift sum).
        t = overflowing("grid_bridge")
        assert estimate_negative_prob(t, 50.0, 200, seed=4, step=0.05).ci_low > 0.0
        with pytest.raises(UndeterminedError, match="nonfinite_paths=200"):
            estimate_negative_prob(t, 800.0, 200, seed=4, step=0.05)


class TestMinimumRecords:
    @pytest.mark.parametrize("engine", [c[0] for c in ENGINE_CASES])
    def test_minimum_agrees_with_the_hits(self, engine, monkeypatch):
        t = engine_case(engine)[1]
        runs = []
        for threads, rows, steps in (("1", 256, 1024), ("2", 256, 1024), ("1", 64, 7)):
            monkeypatch.setenv("GOU_THREADS", threads)
            monkeypatch.setattr(estimate, "_GRID_ROWS", rows)
            monkeypatch.setattr(estimate, "_GRID_STEPS", steps)
            b = _dispatch_batch(t, [0.5], 10.0, 600, 3, 0, step=0.01, min_at=0.5)
            assert b.engine == engine
            runs.append((b.v_min, b.hit[0.5], b.nonfinite))
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


def box_density_triplet():
    return LevyTriplet2D(
        (0.3, 0.1), ((0.0, 0.0), (0.0, 0.0)),
        BoxDensity(lambda x, y: 0.3, (0.5, 1.5, -1.5, 0.5)),
    )


class TestDensityTier:
    Z, HORIZON, N, SEED, STEP, EPS = 0.5, 5.0, 20, 3, 0.05, 0.3

    def test_records_match_per_path_simulation(self):
        t = box_density_triplet()
        assert _select_engine(t) == "mixed_grid"
        args = (t, self.Z, self.HORIZON, self.N, self.SEED)
        kw = dict(step=self.STEP, truncation_eps=self.EPS)
        est = estimate_ruin(*args, **kw)
        hit, times, values, cont = ruin_records(*args, **kw)
        assert int(hit.sum()) == est.n_events > 0
        cfg = PathConfig(self.HORIZON, self.STEP, self.SEED, self.EPS)
        for i in range(self.N):
            fp = first_passage(simulate_pair(t, cfg, i), self.Z)
            assert hit[i] == fp.hit
            assert np.array_equal([times[i], values[i]], [fp.time, fp.v_at_hit], equal_nan=True)
            assert cont[i] == fp.continuous_crossing

    def test_jump_table_is_built_once_per_batch(self, monkeypatch):
        build = simulate._density_jump_table
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(simulate, "_density_jump_table", counted)
        monkeypatch.setattr(estimate, "_density_jump_table", counted)
        estimate_ruin(box_density_triplet(), self.Z, self.HORIZON, self.N, self.SEED,
                      step=self.STEP, truncation_eps=self.EPS)
        assert len(calls) == 1


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
        assert cdf.ks_distance_to(target.cdf) <= 0.012
        assert cdf.diagnostics["ks_T_vs_half"] < 0.01

    def test_pure_drift_limit(self):
        b = 1.7
        t = triplet((1.0, b))
        cdf = estimate_Zinf_cdf(t, 30.0, 200, seed=9)
        assert np.allclose(cdf.values, b, atol=b * 1e-9 + 1e-9)

    def test_degenerate_limit_is_constant(self):
        # eta = -k W with positive xi drift: the limit sits at k.
        from gouruin.classify import is_degenerate
        from gouruin.model import Atoms1D, MarginalTriplet, from_marginals, marginal_eta, w_transform

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
        assert check.lhs.n_events == int(hit.sum()) == 1544
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
        # Value of the per-path exact loop before it was shared with _fv_batch.
        t = jump_example_triplet(1.0, 1.0)
        assert empirical_lower_bound(t, 0.5, 50.0, 100, seed=21) == -202684412.4919786
        assert empirical_lower_bound(t, 1.8, 100.0, 100, seed=18) == 1.800334453401879

    def test_mixed_grid_value_is_pinned(self):
        # Recorded when the bound still re-simulated each path on its own;
        # the batch uses the same streams.
        t = engine_case("mixed_grid")[1]
        assert empirical_lower_bound(t, 0.5, 3.0, 50, seed=5, step=0.02) == -6.771065989626808

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
                    MIXED_ATOMS, z_list, 5.0, 0.05, 200, 7, 0, None, want_times=True
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

    def test_long_mixed_rows_make_chunks_of_one_row(self, monkeypatch):
        # T = 2000 at step 0.01: 200 001 grid instants per row, past the
        # element budget, so every chunk holds one path.
        rows = []

        class Recorded(simulate._EulerChunk):
            def __init__(self, t, cfg, jump_table, draws):
                rows.append(len(draws))
                super().__init__(t, cfg, jump_table, draws)

        monkeypatch.setattr(estimate, "_EulerChunk", Recorded)
        estimate._mixed_batch(MIXED_ATOMS, [0.5], 2000.0, 0.01, 3, 1, 0, None)
        assert rows == [1, 1, 1]

    def test_exact_chunk_arrays_stay_within_the_element_budget(self, monkeypatch):
        # A row's widest exact_fv array holds its arrivals plus two; the
        # batch's row choice keeps rows x widest row within the budget.
        chunks = []
        build = estimate._fv_state_arrays

        def recorded(t, events, horizon):
            chunks.append((len(events), max(len(e[0]) for e in events) + 2))
            return build(t, events, horizon)

        monkeypatch.setattr(estimate, "_fv_state_arrays", recorded)
        estimate._fv_batch(jump_example_triplet(1.0, 1.0), [0.5], 1000.0, 100, 1, 0)
        assert sum(rows for rows, _ in chunks) == 100
        assert all(rows * width <= estimate._CHUNK_ELEMS for rows, width in chunks)
        assert max(rows for rows, _ in chunks) > 1
