"""Reference constructions that only tests use: each rebuilds a quantity the
package computes another way, so a test can compare the two."""

import enum
import math

import numpy as np

from gouruin.errors import UndeterminedError
from gouruin.model import (
    LevyTriplet2D,
    MarginalTriplet,
    _coordinate_correction,
    _uncompensated_drift,
    s_band,
    s_jump,
    w_transform,
)
from gouruin.numerics import INF
from gouruin.simulate import Path, brownian_part


def from_marginals(
    m_xi: MarginalTriplet, m_eta: MarginalTriplet, brownian_cov: float, jumps
) -> LevyTriplet2D:
    """Rebuild a pair triplet from its marginals plus the joint jump measure.

    The ball drift is chosen so that recomputing the marginals reproduces the
    inputs bit for bit; the reconstruction nudges by a few ulps to absorb
    floating-point rounding of the correction round trip.
    """

    def solve(gamma: float, corr: float) -> float:
        g = gamma - corr
        for _ in range(8):
            if g + corr == gamma:
                return g
            g = math.nextafter(g, g + (gamma - (g + corr)))
        return g

    cx = _coordinate_correction(jumps, "x")
    cy = _coordinate_correction(jumps, "y")
    sigma = ((m_xi.sigma2, brownian_cov), (brownian_cov, m_eta.sigma2))
    return LevyTriplet2D((solve(m_xi.gamma, cx), solve(m_eta.gamma, cy)), sigma, jumps)


class SmallJumpVariation(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNDETERMINED = "undetermined"


def small_jump_variation(t: LevyTriplet2D, u: float) -> SmallJumpVariation:
    """Decides whether the small positive jumps of S(u) have finite mass-size
    integral; always finite on the atom tier."""
    if t.jumps.atoms_or_none() is not None:
        return SmallJumpVariation.FINITE
    try:
        value = t.jumps.integrate(
            lambda x, y: max(s_jump(x, y, u), 0.0), [s_band(u, 0.0, 1.0)], nonneg=True
        )
    except UndeterminedError:
        return SmallJumpVariation.UNDETERMINED
    return SmallJumpVariation.INFINITE if value == INF else SmallJumpVariation.FINITE


def simulate_stochastic_exponential(t: LevyTriplet2D, p: Path) -> np.ndarray:
    """Stochastic-exponential path built from the same randomness as xi.

    Uses the product formula with the Brownian part negated, jumps mapped by
    x -> e^-x - 1, and the drift pinned by the transform; the result must
    reproduce exp(-xi) to floating accuracy.
    """
    bw = _uncompensated_drift(w_transform(t))[1]
    sigma2 = t.sigma_xi2
    B = brownian_part(p)
    dxi = p.xi - p.xi_left
    w_inc = np.where(p.jump_flags, np.expm1(-dxi), 0.0)
    w_path = bw * p.times - B + np.cumsum(w_inc)
    log_corr = np.cumsum(np.where(p.jump_flags, np.log1p(w_inc) - w_inc, 0.0))
    return np.exp(w_path - 0.5 * sigma2 * p.times + log_corr)


def ks_distance(cdf, ref) -> float:
    """Sup distance between an ``EmpiricalCDF`` and a reference cdf
    callable."""
    ref_values = np.asarray(ref(cdf.values), dtype=float)
    steps = np.arange(1, cdf.n + 1) / cdf.n
    return float(max(np.max(np.abs(steps - ref_values)),
                     np.max(np.abs(steps - 1.0 / cdf.n - ref_values))))
