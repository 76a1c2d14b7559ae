"""Monte Carlo estimators with confidence intervals.

Every estimator fans simulation out over counter-based random streams.
The four engines share one keyed layout: every value they draw is a
splitmix64 hash uniform (``simulate._hash_uniforms``) at a counter of the
sequence keyed by (seed, stream), which packs the path and the draw, so
``exact_fv`` and ``mixed_grid`` (arrival gaps, atoms or density cells, and
interval normals) and ``grid_bridge`` and ``expmart``
(``bridge._keyed_normals``) open no generator.  So results depend only on
(seed, stream, n) and never on chunking, round widths or worker count;
``GOU_THREADS`` caps the worker pool.  Probability estimates carry Wilson
95% intervals, which stay informative at p = 0.

Engine selection per driver, under the names the reports print:

* ``exact_fv``: zero Gaussian part, finitely many jump types; event-driven
  with exact crossing detection (no discretization error at all).
* ``expmart``: no jumps and the Gaussian/drift structure that makes the
  discounted integral an explicit function of xi; values at grid times are
  exact, and sub-grid crossings are resolved by exact Brownian-bridge
  probabilities in xi space.
* ``grid_bridge``: no jumps and deterministic xi; left-point Euler on the
  grid, where the integral has independent Gaussian increments and
  sub-grid crossings are again resolved exactly by bridge probabilities.
* ``mixed_grid``: every other driver; jump-adapted Euler.  A driver with no
  jumps and random xi draws no arrivals there, only each interval's normal
  pair, and its ruin estimate errs on the survival side (crossings between
  grid instants go unseen, the documented bias direction).

Every grid engine walks ``simulate.time_grid``: n = max(1, round(T /
step)) equal steps, ending exactly at T, with the step min(0.01, T / 100)
when none is given (``simulate.path_step``).  Both event engines draw
their atom jumps from one sampler, ``simulate._fv_events``, so on a driver
with no Gaussian part ``mixed_grid`` and ``exact_fv`` see the same jumps,
path for path, and differ only by the grid's Euler error.

One batch loop, ``_batch_from_chunks``, serves all four engines: an engine
only yields chunks of paths (``_Chunk``), and the loop reduces each one with
the one first-passage reducer, ``_Chunk.first_crossings``, under one memory
budget (``_CHUNK_ELEMS`` values per chunk array and path component) and one
non-finite rule.  The estimators, the formula checks, the per-path records
and the empirical lower bound all read the same batch of paths.  The event
engines (``exact_fv``, ``mixed_grid``) march the live paths of a range
forward in rounds of their next arrivals or instants (``_event_batch``),
each carrying per-path running state from round to round, so no chunk
memory grows with the horizon; ``grid_bridge`` and ``expmart`` draw a
range of paths coarse to fine in the keyed midpoint layout (``bridge``),
only where a path can come near a level it has not passed, and yield it
whole as the records of its computed values.  Every engine stops a path
once it is ruined at every level, or lost, unless a sink reads the paths.

No estimate is computed from an overflowed value, on any engine: a path
decides its levels from its finite prefix, and a path whose Z or xi turns
non-finite (at any instant of a chunk) before it is ruined at every
requested level (before the horizon, for the lower bound), or whose terminal
value is non-finite, is counted as a non-finite path and makes the estimator
raise ``UndeterminedError``; it never counts as survival.

Ruin is an infinite-horizon quantity; estimates are over a finite horizon
and therefore estimate it from below.  When the discounted integral is known
to converge, a tail diagnostic (fraction of surviving paths ending within
eps of the ruin boundary) quantifies the truncation risk.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict, z_infinity_converges
from .errors import InvalidModelError, NotApplicableError, UndeterminedError
from .model import LevyTriplet2D, rigid_level, xi_brownian
from .numerics import BOUNDARY_TOL
from .simulate import (
    _event_types,
    _hash_uniforms,  # read here by bridge and perfbench/tracing.py
    _pair_rates,
    _require_fv,
    check_event_count,
    check_keys,
    check_path_count,
    is_exact_fv,
    path_step,
    time_grid,
)

_Z975 = 1.959963984540054

#: Paths per range of the event engines (exact_fv, mixed_grid), the unit of
#: work of a thread, whose live paths draw their rounds together.  Fixed,
#: so the ranges never depend on the worker count.
_PATH_BLOCK = 128

#: Float64 elements of the widest array of a chunk, on every engine: the
#: event engines draw the live paths of a range in rounds of as many
#: instants as fit, and the bridge engines examine at most this many cells
#: at once, or for a sink yield time blocks of at most this many grid
#: values, so no chunk memory grows with the horizon.  64 KB per array
#: stays under glibc's 128 KB mmap threshold, near which every temporary
#: of a chunk page-faults.
_CHUNK_ELEMS = 8_192

#: Survivors ending within this distance of the ruin boundary count in the
#: tail diagnostic of a ruin estimate.
_TAIL_EPS = 0.05

#: Largest bridge exponent a hash uniform can produce (u >= 2^-53).
_Q_MAX = 0.5 * 53.0 * math.log(2.0)


def worker_count() -> int:
    """``GOU_THREADS``, clamped to [1, CPUs this process may run on]."""
    try:
        wanted = int(os.environ.get("GOU_THREADS", "1"))
    except ValueError:
        wanted = 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(wanted, cpus))


def wilson_interval(k: int, n: int, z: float = _Z975) -> tuple[float, float]:
    """Wilson score interval; well behaved at k = 0 and k = n."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    ci_low: float
    ci_high: float
    n_paths: int
    n_events: int
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_paths": self.n_paths,
            "n_events": self.n_events,
            "diagnostics": self.diagnostics,
        }


class EmpiricalCDF:
    """Right-continuous empirical distribution of a sample."""

    def __init__(self, values):
        self.values = np.sort(np.asarray(values, dtype=float))
        self.diagnostics: dict = {}

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, x):
        return np.searchsorted(self.values, x, side="right") / self.n

    def ks_two_sample(self, other: "EmpiricalCDF") -> float:
        pooled = np.concatenate([self.values, other.values])
        return float(np.max(np.abs(self(pooled) - other(pooled))))


# ---------------------------------------------------------------------------
# Batch simulation cores
# ---------------------------------------------------------------------------


class _BatchResult:
    """Per-z first-passage records plus terminal samples shared across
    levels; ``time`` is filled only when the caller asks for times, and
    ``z_half`` (Z at mid-horizon: the first monitored instant from half the
    horizon on, or on the bridge engines grid instant ``n_steps // 2``) only
    for requests with no levels and no sink.  ``passed`` counts the levels
    each path has passed (they nest), and ``lost`` marks the paths that
    turned non-finite before they were decided; ``nonfinite`` counts them.

    ``z_T`` holds Z at the horizon of every path the engine carries there.
    Every engine may stop a path once it is ruined at every level or lost,
    unless a sink reads the paths, so such a path keeps NaN, whatever the
    engine carried.  ``_batch_from_chunks`` alone fills a batch in."""

    def __init__(self, engine, levels, n, want_times, want_half):
        shape = (len(levels), n)
        self.table = (np.zeros(shape, bool), np.full(shape, math.nan),
                      np.full(shape, math.nan), np.zeros(shape, bool))
        self.hit, time, self.v_hit, self.continuous = (
            dict(zip(levels.tolist(), a)) for a in self.table)
        self.time = time if want_times else {}
        self.z_T = np.full(n, math.nan)
        self.z_half = np.full(n, math.nan) if want_half else None
        self.passed = np.zeros(n, dtype=np.intp)
        self.lost = np.zeros(n, dtype=bool)
        self.engine = engine

    @property
    def nonfinite(self) -> int:
        return int(self.lost.sum())

    def add(self, level, path, *crossing) -> None:
        """Enter first crossings as ``_Chunk.first_crossings`` gives them:
        level index, path, time, value there, continuous crossing."""
        self.table[0][level, path] = True
        for a, values in zip(self.table[1:], crossing):
            a[level, path] = values

    def records(self, z: float):
        """(hit, time, value at the hit, continuous crossing) per path at z."""
        return self.hit[z], self.time[z], self.v_hit[z], self.continuous[z]


def _is_expmart(t: LevyTriplet2D) -> float | None:
    """Level u0 when the integral has the closed form u0 (e^-xi - 1)."""
    atoms = t.jumps.atoms_or_none()
    if atoms is None or len(atoms) > 0:
        return None
    u0 = rigid_level(t.sigma)
    if u0 is None or abs(u0) <= BOUNDARY_TOL:
        return None
    target = u0 * (0.5 * t.sigma[0][0] - t.gamma_tilde[0])
    if abs(t.gamma_tilde[1] - target) > BOUNDARY_TOL * max(1.0, abs(target)):
        return None
    return u0


def _select_engine(t: LevyTriplet2D) -> str:
    """Canonical engine name of a driver, as the reports print it."""
    if is_exact_fv(t):
        return "exact_fv"
    atoms = t.jumps.atoms_or_none()
    if atoms is not None and len(atoms) == 0:
        if _is_expmart(t) is not None:
            return "expmart"
        if not xi_brownian(t):
            return "grid_bridge"
    return "mixed_grid"


def _chunk_ranges(n: int, chunk: int):
    return [(i, min(i + chunk, n)) for i in range(0, n, chunk)]


def _run_chunks(fn, ranges):
    workers = worker_count()
    if workers <= 1 or len(ranges) <= 1:
        return [fn(r) for r in ranges]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ranges))


def _batch_from_chunks(engine, levels, n, rows, chunks, want_times, sink, half):
    """The batch of any engine, assembled from its chunks.  ``chunks(i0, i1,
    res)`` yields (path ids, ``_Chunk``) pairs for the paths i0..i1-1, in
    ranges of ``rows`` paths; a path comes back in later chunks for its
    later instants, in time order, and the producer may read ``res`` to drop
    decided paths.  Each chunk is reduced at once: its terminal values
    (``z_T``, and ``z_at(half)`` on the rows that hold it, the others NaN)
    and its first crossings of every level after those its paths passed
    before; a path's last chunk holds its ``z_T``.  A path is
    lost when a chunk finds it not finite (``chunk.finite``) while a level is
    not passed or a sink is given: it never counts as surviving.

    With a ``sink``, the full-path mode, the loop reads every chunk whole
    and calls ``sink(ids, chunk)`` on each, so the sink sees every monitored
    instant of every path (``chunk.states``).  Sinks run on the worker
    threads, each on the paths of its own ranges."""
    n_levels = len(levels)
    want_half = not n_levels and sink is None
    res = _BatchResult(engine, levels, n, want_times, want_half)

    def run(rng_range):
        # ``chunk`` keeps the last chunk until the next one is built, so the
        # allocator reuses its memory; freed at once, the chunk's arrays
        # would go back to the system and fault in again for the next one.
        # Overflow, in the chunks and here, is caught by the rule on ``lost``.
        with np.errstate(over="ignore", invalid="ignore"):
            for ids, chunk in chunks(*rng_range, res):
                if chunk.z_T is not None:
                    res.z_T[ids] = chunk.z_T
                if want_half and (z_half := chunk.z_at(half)) is not None:
                    held = ~np.isnan(z_half)
                    res.z_half[ids[held]] = z_half[held]
                if sink is not None:
                    sink(ids, chunk)
                level, r, *crossings, passed = chunk.first_crossings(
                    levels, want_times, res.passed[ids])
                res.add(level, ids[r], *crossings)
                res.passed[ids] = passed
                res.lost[ids] |= ~chunk.finite & ((sink is not None) | (passed < n_levels))

    _run_chunks(run, _chunk_ranges(n, rows))
    if n_levels and sink is None:  # such a path may have stopped before the horizon
        res.z_T[(res.passed == n_levels) | res.lost] = math.nan
    return res


def _gaussian_grid_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    step: float,
    n: int,
    seed: int,
    stream: int,
    engine: str,
    want_times: bool = False,
    sink=None,
) -> _BatchResult:
    """The bridge engines, ``grid_bridge`` and ``expmart``: no jumps, and
    deterministic xi or the closed-form regime.  A path is ruined at a
    level at the first grid instant past it, or at the right end of an
    earlier step whose exact Brownian-bridge extreme (of Z, or in xi space)
    passes it.  Levels nest, so common random numbers and monotonicity in
    the level are structural.

    They open no generator: they draw their grid coarse to fine in the
    keyed midpoint layout (``bridge.keyed_batch``), each node's normal a
    Box-Muller transform of two hash uniforms of at least 2^-53 keyed by
    (seed, stream, path, node), so within 8.57 standard deviations, and
    each step's bridge extreme solved from its own uniform.  The grid of a path is a fixed function of (seed, stream,
    path) and the step, and is drawn only where the path can come near a
    level, so results depend only on (seed, stream, n), never on the
    horizon of a crossing, the levels, the chunking or the workers.
    """
    times = time_grid(horizon, step)
    levels = np.array(sorted(set(z_list)), dtype=float)

    # Paths march as keys that fall toward ruin: Z, or on expmart xi times
    # ``sign``, the sign of -u0 (negation is exact).  ``fire`` maps keys to
    # -Z, which ruins at level z once above z.
    if engine != "expmart":
        sign = 1.0
        fire = np.negative
    else:
        u0 = _is_expmart(t)
        sign = -1.0 if u0 > 0.0 else 1.0

        def fire(x):
            return u0 * -np.expm1(-sign * x)

    from .bridge import keyed_batch  # compiled only once a keyed engine runs

    return keyed_batch(t, engine, levels, times, n, seed, stream, sign, fire, want_times, sink,
                       _CHUNK_ELEMS)


def _event_batch(engine, rounds, z_list, horizon, n, want_times, sink) -> _BatchResult:
    """The batch of an event engine (``exact_fv``, ``mixed_grid``) from its
    rounds: ``rounds(ids, budget, stop)`` yields the rounds of paths
    ``ids``.  Each range of ``_PATH_BLOCK`` paths marches forward together,
    at most ``_CHUNK_ELEMS`` values per array; unless a sink reads the
    paths, a path ruined at every level, or lost, stops drawing."""
    levels = np.array(sorted(set(z_list)), dtype=float)
    n_levels = len(levels)

    def chunks(i0, i1, res):
        def decided(ids):
            return (res.passed[ids] == n_levels) | res.lost[ids]

        return rounds(np.arange(i0, i1), _CHUNK_ELEMS,
                      decided if sink is None and n_levels else None)

    return _batch_from_chunks(engine, levels, n, _PATH_BLOCK, chunks, want_times, sink,
                              0.5 * horizon)


def _fv_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    n: int,
    seed: int,
    stream: int,
    want_times: bool = False,
    sink=None,
) -> _BatchResult:
    """Event-driven exact batch for zero-Gaussian atom drivers
    (``events._fv_rounds``)."""
    _require_fv(t)
    check_event_count(_event_types(t.jumps.atoms_or_none())[0], horizon)
    from . import events  # compiled only once an event engine runs

    return _event_batch(
        "exact_fv",
        lambda ids, budget, stop: events._fv_rounds(t, horizon, seed, stream, ids, budget, stop),
        z_list, horizon, n, want_times, sink,
    )


def _mixed_batch(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    step: float,
    n: int,
    seed: int,
    stream: int,
    want_times: bool = False,
    sink=None,
) -> _BatchResult:
    """General driver: jump-adapted Euler simulation on ``time_grid``
    (``events._mixed_rounds``), with the atom jumps of ``_fv_events`` or
    those of a density family's jump table (``simulate._pair_jumps``)."""
    grid = time_grid(horizon, step)
    check_event_count(_pair_rates(t)[2], horizon, len(grid) - 1)
    from . import events  # compiled only once an event engine runs

    return _event_batch(
        "mixed_grid",
        lambda ids, budget, stop: events._mixed_rounds(t, grid, seed, stream, ids, budget,
                                                       stop),
        z_list, horizon, n, want_times, sink,
    )


def _require_finite(nonfinite: int, n: int) -> None:
    """A path that turned non-finite before its question was answered makes
    the estimate undetermined; it never counts as survival."""
    if nonfinite:
        raise UndeterminedError(
            f"nonfinite_paths={nonfinite} of {n}: the simulated values overflowed "
            "before the paths could be decided; shorten the horizon"
        )


def _check_inputs(horizon, n, step, levels, seed) -> float:
    """Refuse outside input that no engine answers, and return the step:
    a horizon or step that ``path_step`` refuses, fewer than one
    path or more than a keyed counter holds (``simulate.MAX_PATHS``), a
    level that is not finite (a NaN compares false with every value, and no
    finite-horizon estimate means anything at an infinite level) or a
    negative seed."""
    step = path_step(horizon, step)
    if n < 1:
        raise InvalidModelError(f"the number of paths must be at least 1, got {n}")
    check_path_count(n)
    for z in levels:
        if math.isnan(z):
            raise InvalidModelError("level z must be a number, got nan")
        if math.isinf(z):
            raise InvalidModelError(f"level z must be finite, got {z}")
    check_keys(seed=seed)
    return step


def _dispatch_batch(
    t, z_list, horizon, n, seed, stream, step=None, want_times=False, sink=None,
) -> _BatchResult:
    """The batch of the driver's engine, for outside input that
    ``_check_inputs`` accepts; a ``sink`` reads every chunk whole
    (``_batch_from_chunks``)."""
    step = _check_inputs(horizon, n, step, z_list, seed)
    engine = _select_engine(t)
    if engine == "exact_fv":
        return _fv_batch(t, z_list, horizon, n, seed, stream, want_times, sink)
    if engine == "mixed_grid":
        return _mixed_batch(t, z_list, horizon, step, n, seed, stream, want_times, sink)
    return _gaussian_grid_batch(
        t, z_list, horizon, step, n, seed, stream, engine, want_times, sink
    )


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def estimate_ruin(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
) -> EstimateWithCI:
    """Fraction of paths ruined before the horizon (lower bound on the
    infinite-horizon ruin probability)."""
    return _ruin_estimate(t, z, horizon, n, seed, step)[0]


def _ruin_estimate(
    t, z, horizon, n, seed, step, want_times=False
) -> tuple[EstimateWithCI, _BatchResult]:
    """``estimate_ruin`` and the batch it reduces.  ``want_times`` only adds
    the crossing times, so the records of this batch describe the paths of
    the estimate."""
    batch = _dispatch_batch(t, [z], horizon, n, seed, stream=0, step=step, want_times=want_times)
    _require_finite(batch.nonfinite, n)
    hits = batch.hit[z]
    k = int(hits.sum())
    lo, hi = wilson_interval(k, n)
    diag = {
        "horizon": horizon,
        "engine": batch.engine,
        "estimates_infinite_horizon_from_below": True,
        "nonfinite_paths": 0,
    }
    if z_infinity_converges(t) is Verdict.YES:  # every survivor has its z_T
        survivors = ~hits
        near = np.sum((z + batch.z_T[survivors]) < _TAIL_EPS)
        diag["tail_near_ruin_fraction"] = float(near / max(1, survivors.sum()))
        diag["tail_eps"] = _TAIL_EPS
    return EstimateWithCI(k / n, lo, hi, n, k, diag), batch


def estimate_negative_prob(
    t: LevyTriplet2D,
    T: float,
    n: int,
    seed: int,
    step: float | None = None,
) -> EstimateWithCI:
    """Fraction of paths whose discounted integral is negative at time T."""
    batch = _dispatch_batch(t, [], T, n, seed, stream=0, step=step)
    _require_finite(int(np.count_nonzero(~np.isfinite(batch.z_T))), n)
    k = int(np.sum(batch.z_T < 0.0))
    lo, hi = wilson_interval(k, n)
    return EstimateWithCI(
        k / n, lo, hi, n, k, {"T": T, "engine": batch.engine, "nonfinite_paths": 0}
    )


def estimate_Zinf_cdf(
    t: LevyTriplet2D,
    T: float,
    n: int,
    seed: int,
    step: float | None = None,
) -> EmpiricalCDF:
    """Empirical law of the discounted integral at T as a proxy for its
    limit law; refuses when the limit does not exist.

    The distance between the laws at T and T/2 is reported as a
    convergence-in-horizon diagnostic.
    """
    _require_zinf_converges(t)
    return _zinf_cdf(t, T, n, seed, step)


def _require_zinf_converges(t: LevyTriplet2D) -> None:
    verdict = z_infinity_converges(t)
    if verdict is not Verdict.YES:
        raise NotApplicableError(
            f"the discounted integral does not converge for this driver ({verdict.value})"
        )


def _zinf_cdf(t, T, n, seed, step) -> EmpiricalCDF:
    """``estimate_Zinf_cdf`` for a driver whose discounted integral
    converges, on stream 1."""
    batch = _dispatch_batch(t, [], T, n, seed, stream=1, step=step)
    _require_finite(
        int(np.count_nonzero(~(np.isfinite(batch.z_T) & np.isfinite(batch.z_half)))), n
    )
    half_cdf = EmpiricalCDF(batch.z_half)
    cdf = EmpiricalCDF(batch.z_T)
    ks = cdf.ks_two_sample(half_cdf)
    cdf.diagnostics.update({"T": T, "ks_T_vs_half": ks, "engine": batch.engine})
    return cdf


@dataclass(frozen=True)
class RuinFormulaCheck:
    """Two-sided validation of the ruin identity
    psi(z) = G(-z) / E[G(-V at ruin) | ruin]."""

    lhs: EstimateWithCI
    rhs: EstimateWithCI
    consistent: bool | None
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "consistent": self.consistent,
            "diagnostics": self.diagnostics,
        }


def validate_ruin_formula(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
    g_cdf: EmpiricalCDF | None = None,
) -> RuinFormulaCheck:
    """Direct ruin estimate versus the ratio formula, same empirical law in
    numerator and denominator.

    Ruined paths that cross continuously contribute G(0); jump overshoots
    contribute G(-V) at the exact overshoot.  The ratio interval is widened
    by the uniform (DKW) sampling error of the empirical law.  Fewer than 30
    ruin events leaves the ratio undetermined.
    """
    return ruin_formula_checks(t, [z], horizon, n, seed, step=step, g_cdf=g_cdf)[z]


def ruin_formula_checks(
    t: LevyTriplet2D,
    z_list,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
    g_cdf: EmpiricalCDF | None = None,
) -> dict[float, RuinFormulaCheck]:
    """Formula validation at several levels off one shared path batch
    (common random numbers across levels).  Without ``g_cdf`` the law of
    the discounted integral comes from a second batch
    (``estimate_Zinf_cdf``)."""
    if g_cdf is None:
        _require_zinf_converges(t)
    step = _check_inputs(horizon, n, step, z_list, seed)
    if g_cdf is None:
        g_cdf = _zinf_cdf(t, horizon, n, seed, step)
    batch = _dispatch_batch(t, list(z_list), horizon, n, seed, stream=0, step=step)
    _require_finite(batch.nonfinite, n)
    return {
        z: _assemble_formula_check(batch, g_cdf, z, n) for z in z_list
    }


def _assemble_formula_check(batch, g_cdf, z, n) -> RuinFormulaCheck:
    hits = batch.hit[z]
    k = int(hits.sum())
    lo, hi = wilson_interval(k, n)
    lhs = EstimateWithCI(k / n, lo, hi, n, k, {"engine": batch.engine})

    eps_g = math.sqrt(math.log(2.0 / 0.05) / (2.0 * g_cdf.n))
    num = float(g_cdf(-z))
    diag = {
        "G_at_minus_z": num,
        "dkw_eps": eps_g,
        "n_events": k,
        "ks_T_vs_half": g_cdf.diagnostics.get("ks_T_vs_half"),
    }

    if k == 0:
        # Denominator unobserved but bounded by 1: the ratio is at least the
        # numerator; trivially consistent when both sides vanish.
        rhs = EstimateWithCI(
            num, max(0.0, num - eps_g), 1.0 if num + eps_g > 0 else 0.0, n, 0,
            {"note": "no ruin events; denominator bounded by 1"},
        )
        consistent = lhs.ci_low <= rhs.ci_high and rhs.ci_low <= lhs.ci_high
        return RuinFormulaCheck(lhs, rhs, consistent, diag)

    contrib = np.where(
        batch.continuous[z][hits], float(g_cdf(0.0)), 0.0
    )
    v_vals = batch.v_hit[z][hits]
    jump_mask = ~batch.continuous[z][hits]
    if jump_mask.any():
        contrib[jump_mask] = g_cdf(-v_vals[jump_mask])
    den = float(np.mean(contrib))
    se_den = float(np.std(contrib, ddof=1) / math.sqrt(k)) if k > 1 else 0.5
    den_lo = max(1e-12, den - _Z975 * se_den - eps_g)
    den_hi = min(1.0, den + _Z975 * se_den + eps_g)
    point = num / den if den > 0 else math.inf
    rhs_lo = max(0.0, (num - eps_g) / den_hi)
    rhs_hi = min(1.0, (num + eps_g) / den_lo)
    rhs = EstimateWithCI(min(1.0, point), rhs_lo, rhs_hi, n, k, {"denominator": den})

    if k < 30:
        diag["note"] = "fewer than 30 ruin events; ratio undetermined"
        return RuinFormulaCheck(lhs, rhs, None, diag)
    consistent = lhs.ci_low <= rhs.ci_high and rhs.ci_low <= lhs.ci_high
    return RuinFormulaCheck(lhs, rhs, consistent, diag)


def empirical_lower_bound(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
) -> float:
    """Smallest V = e^xi (z + Z) over the paths and monitored instants of
    the batch and streams of ``estimate_ruin``: the Monte Carlo side of
    delta(z).  The instants are those of ``chunk.states``: t = 0 and the
    pre-jump, post-jump and horizon states on ``exact_fv`` (exact: the path
    is monotone between them), the grid on the bridge engines (xi =
    gamma_xi t on ``grid_bridge``) and the jump-adapted grid on
    ``mixed_grid``; ``gouruin simulate`` writes the same instants.  V = z at
    t = 0, so the bound is at most z.  A path whose Z or xi turns non-finite
    before the horizon makes the bound undetermined."""
    _check_inputs(horizon, n, step, [z], seed)
    low = np.full(n, math.inf)

    def lowest(ids, chunk):
        low[ids] = np.minimum(low[ids], chunk.states(z).lowest())

    batch = _dispatch_batch(t, [], horizon, n, seed, stream=0, step=step, sink=lowest)
    _require_finite(batch.nonfinite, n)
    return float(low.min())


def ruin_records(
    t: LevyTriplet2D,
    z: float,
    horizon: float,
    n: int,
    seed: int,
    step: float | None = None,
):
    """Per-path first-passage records (hit, time, value at the hit,
    continuous crossing) for external analysis, from the same batch and
    streams as ``estimate_ruin``: the hits are its ruin events.

    ``exact_fv`` reports exact times and values.  On ``expmart`` and
    ``grid_bridge`` the time is the monitored instant that ends the
    crossing cell, with the Brownian-bridge crossing correction of the
    estimate, and the value 0.  ``mixed_grid`` reports its first grid or
    jump instant with V below zero, and V there (also on a driver with no
    jumps).  Non-ruined paths carry NaN time and value.
    """
    batch = _dispatch_batch(t, [z], horizon, n, seed, stream=0, step=step, want_times=True)
    _require_finite(batch.nonfinite, n)
    return batch.records(z)
