"""Exact ruin classification for the generalized Ornstein-Uhlenbeck process.

Everything here reduces to one question: for which levels u is the test
process S(u) = eta - u W a subordinator, where W is the Levy process with
exp(-xi) = stochexp(W)?  The process started at z can never drop below the
largest such u at or below z, and the infinite-horizon ruin probability from
z is zero exactly when some u in [0, z] qualifies.

A 1-d Levy process is a subordinator iff it has no Gaussian part, no
negative jumps, and nonnegative drift after removing the small-jump
compensation.  Applied to S(u) those three conditions become

* a rigidity constraint on the Gaussian covariance (B_eta = -u B_xi),
* emptiness of the moving quadrant regions at u, captured by the interval
  [theta2, theta4] (u >= 0) or [theta1, theta3] (u <= 0),
* the drift inequality L(u) >= 0 of :mod:`gouruin.regions`.

The module deliberately keeps two independent routes to the same verdict:
``is_subordinator_s`` evaluates the three structural conditions from the
pair triplet, while ``is_subordinator_1d(s_process(t, u))`` builds the
triplet of S(u) explicitly and applies the 1-d definition.  Their agreement
is the core correctness oracle of the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import UndeterminedError
from .intervals import Interval, IntervalSet
from .model import (
    LevyTriplet2D,
    MarginalTriplet,
    Pushforward1D,
    d_eta,
    mean_at_one,
    rigid_level,
    s_gaussian_variance,
    s_jump,
    xi_brownian,
    zero_gaussian,
)
from .numerics import BOUNDARY_TOL, INF, NEG_INF, ext_to_json, sgn
from .regions import (
    PiecewiseLinearFn, ThetaBounds, drift_lhs, drift_lhs_piecewise, family_box, mass_tol,
    quadrant_mass, thetas,
)


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


class FailedCondition(enum.Enum):
    GAUSSIAN = "gaussian"
    NEGATIVE_JUMPS = "negative_jumps"
    DRIFT = "drift"


@dataclass(frozen=True)
class SubordinatorCertificate:
    """Machine-checkable record of the three-part subordinator test;
    ``negative_jumps_mass`` is None when the test stopped before it, and
    ``residual`` is the error bound of the quadrature that left it
    undetermined, when that quadrature reported one."""

    verdict: Verdict
    gaussian_ok: bool
    negative_jumps_mass: float | None
    drift_d: float | None
    failing_condition: FailedCondition | None
    detail: str | None = None
    residual: float | None = None

    @classmethod
    def undetermined(
        cls, exc: UndeterminedError, gaussian_ok: bool = False, neg_mass: float | None = None
    ) -> SubordinatorCertificate:
        """The certificate of a test that ``exc`` left open."""
        return cls(Verdict.UNDETERMINED, gaussian_ok, neg_mass, None, None, detail=str(exc),
                   residual=exc.residual)

    def to_json(self) -> dict:
        doc = {
            "verdict": self.verdict.value,
            "gaussian_ok": self.gaussian_ok,
            "negative_jumps_mass": ext_to_json(self.negative_jumps_mass),
            "drift_d": None if self.drift_d is None else ext_to_json(self.drift_d),
            "failing_condition": self.failing_condition.value
            if self.failing_condition
            else None,
            "detail": self.detail,
        }
        if self.residual is not None:
            doc["residual"] = self.residual
        return doc


def is_subordinator_1d(m: MarginalTriplet) -> SubordinatorCertificate:
    """Direct 1-d subordinator test: no Gaussian part, no negative jumps,
    nonnegative drift."""
    gaussian_ok = sgn(m.sigma2) == 0
    try:
        neg_mass = m.jumps.mass(NEG_INF, 0.0)
    except UndeterminedError as exc:
        return SubordinatorCertificate.undetermined(exc, gaussian_ok)
    if not gaussian_ok:
        return SubordinatorCertificate(
            Verdict.NO, False, neg_mass, None, FailedCondition.GAUSSIAN
        )
    if neg_mass > 0.0:
        return SubordinatorCertificate(
            Verdict.NO, True, neg_mass, None, FailedCondition.NEGATIVE_JUMPS
        )
    try:
        d = d_eta(m)
    except UndeterminedError as exc:
        return SubordinatorCertificate.undetermined(exc, True, neg_mass)
    if sgn(d) >= 0 if math.isfinite(d) else d == INF:
        return SubordinatorCertificate(Verdict.YES, True, neg_mass, d, None)
    return SubordinatorCertificate(
        Verdict.NO, True, neg_mass, d, FailedCondition.DRIFT
    )


def _s_negative_jump_mass(t: LevyTriplet2D, u: float) -> float:
    """Mass of the pair jumps that move S(u) down.  A named density family
    decides from its box's lowest S(u) jump y - u(e^-x - 1), at the corner
    (x0, y0) for u >= 0 and (x1, y0) for u < 0: none below the dead band
    means no mass and no quadrature; one below it means a positive-area
    part of the box moves S(u) down, so the quadrature mass is kept above
    zero."""
    atoms = t.jumps.atoms_or_none()
    if atoms is not None:
        return sum(a.rate for a in atoms if sgn(s_jump(a.x, a.y, u)) < 0)
    box = family_box(t.jumps)
    if box is not None:
        x0, x1, y0, _ = box
        if sgn(s_jump(x1 if u < 0.0 else x0, y0, u)) >= 0:
            return 0.0
    mass = Pushforward1D.s_jumps(t.jumps, u).mass(NEG_INF, 0.0)
    return mass if box is None else max(mass, math.ulp(0.0))


def is_subordinator_s(t: LevyTriplet2D, u: float) -> SubordinatorCertificate:
    """Three-part structural test of whether S(u) = eta - u W is a
    subordinator, evaluated on the pair triplet itself.

    The quadrant conditions are checked in their measure form (no jump of
    S(u) is negative), which is exactly the union of the interval conditions
    on [theta2, theta4] and [theta1, theta3]; the drift condition is the
    closed-region drift inequality.
    """
    gaussian_ok = sgn(s_gaussian_variance(t.sigma, u)) == 0
    try:
        neg_mass = _s_negative_jump_mass(t, u)
    except UndeterminedError as exc:
        return SubordinatorCertificate.undetermined(exc, gaussian_ok)
    if not gaussian_ok:
        return SubordinatorCertificate(
            Verdict.NO, False, neg_mass, None, FailedCondition.GAUSSIAN
        )
    if neg_mass > 0.0:
        return SubordinatorCertificate(
            Verdict.NO, True, neg_mass, None, FailedCondition.NEGATIVE_JUMPS
        )
    try:
        lhs = drift_lhs(t, u)
    except UndeterminedError as exc:
        return SubordinatorCertificate.undetermined(exc, True, neg_mass)
    if (sgn(lhs) >= 0) if math.isfinite(lhs) else lhs == INF:
        return SubordinatorCertificate(Verdict.YES, True, neg_mass, lhs, None)
    return SubordinatorCertificate(
        Verdict.NO, True, neg_mass, lhs, FailedCondition.DRIFT
    )


# ---------------------------------------------------------------------------
# Feasible levels and the lower-bound function
# ---------------------------------------------------------------------------


def _is_zero_mass(m, value: float) -> bool:
    if m.atoms_or_none() is not None:
        return value == 0.0
    return value <= mass_tol(m)


def _region_constraint(t: LevyTriplet2D, th: ThetaBounds) -> IntervalSet:
    """Levels at which no jump of S(u) is negative, as theta intervals."""
    m = t.jumps
    parts = []
    if _is_zero_mass(m, quadrant_mass(m, 3)) and th.theta2 <= th.theta4:
        parts.append(Interval(th.theta2, th.theta4))
    if _is_zero_mass(m, quadrant_mass(m, 2)) and th.theta1 <= th.theta3:
        parts.append(Interval(th.theta1, th.theta3))
    return IntervalSet(parts)


def _feasible(
    t: LevyTriplet2D, piecewise: PiecewiseLinearFn | None = None
) -> tuple[IntervalSet, SubordinatorCertificate | None, ThetaBounds | None, IntervalSet | None]:
    """``feasible_u_set`` by the shape of the Gaussian part, from the
    atom-tier drift form when the caller already has it.  Also returns the
    certificate at the level of a rigid Gaussian part, and the thetas and
    the set where the drift inequality holds of a zero Gaussian part, each
    None when it was not needed."""
    if zero_gaussian(t):  # every level passes the Gaussian condition
        if t.jumps.atoms_or_none() is None:
            raise UndeterminedError(
                "drift feasibility over a continuum of levels needs the atom tier"
            )
        th = thetas(t.jumps)
        drift = (piecewise or drift_lhs_piecewise(t)).nonneg_set()
        return _region_constraint(t, th).intersect(drift), None, th, drift
    u0 = rigid_level(t.sigma)
    if u0 is None:  # no level cancels the Gaussian part
        return IntervalSet.empty(), None, None, None
    # Rigid Gaussian: a single candidate level; evaluate the jump and drift
    # conditions directly so coincident boundaries cannot be lost to
    # independent rounding of interval endpoints.
    cert = is_subordinator_s(t, u0)
    if cert.verdict is Verdict.UNDETERMINED:
        raise UndeterminedError(
            cert.detail or "undetermined at the candidate level", cert.residual
        )
    feasible = IntervalSet.point(u0) if cert.verdict is Verdict.YES else IntervalSet.empty()
    return feasible, cert, None, None


def feasible_u_set(t: LevyTriplet2D) -> IntervalSet:
    """All levels u at which S(u) is a subordinator, as an interval set."""
    return _feasible(t)[0]


def delta(t: LevyTriplet2D, z: float) -> float:
    """Lowest level reachable from z: the largest feasible u at or below z,
    or -inf when no such level exists."""
    return feasible_u_set(t).sup_at_most(z)


# ---------------------------------------------------------------------------
# The ruin decision
# ---------------------------------------------------------------------------


class DecisionKind(enum.Enum):
    NO_RUIN_FROM = "no_ruin_from"
    RUIN_EVERYWHERE = "ruin_everywhere"
    UNDETERMINED = "undetermined"


class Branch(enum.Enum):
    SIGMA_POSITIVE = "sigma_positive"
    SIGMA_ZERO = "sigma_zero"


@dataclass(frozen=True)
class RuinDecision:
    """``threshold`` and ``attained`` are None unless the decision is
    ``no_ruin_from``: a decision without a threshold attains none."""

    kind: DecisionKind
    threshold: float | None = None
    attained: bool | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "threshold": None if self.threshold is None else ext_to_json(self.threshold),
            "attained": self.attained,
        }


@dataclass(frozen=True)
class RuinReport:
    """Complete output of the exact no-ruin decision: ``drift_piecewise`` is
    the atom-tier drift form, ``residual`` the error bound of an undetermined
    quadrature, and the last warning of an undetermined report its reason.
    ``thetas`` is None on a report that is undetermined before they are
    computed."""

    decision: RuinDecision
    thetas: ThetaBounds | None
    feasible_u: IntervalSet
    branch: Branch
    certificate: SubordinatorCertificate
    warnings: tuple[str, ...] = ()
    drift_piecewise: PiecewiseLinearFn | None = None
    residual: float | None = None

    def to_json(self) -> dict:
        doc = {
            "decision": self.decision.to_json(),
            "thetas": None if self.thetas is None else self.thetas.to_json(),
            "feasible_u": self.feasible_u.to_json(),
            "branch": self.branch.value,
            "certificate": self.certificate.to_json(),
            "warnings": list(self.warnings),
        }
        if self.drift_piecewise is not None:
            doc["drift_lhs_piecewise"] = self.drift_piecewise.to_json()
        if self.residual is not None:
            doc["residual"] = self.residual
        return doc


def _literal_threshold_sigma_zero(drift: IntervalSet, th: ThetaBounds) -> float | None:
    """max(theta2, inf{u > 0 : drift inequality holds}), the display form of
    the zero-Gaussian threshold from the set where the drift inequality
    holds; used only to cross-check the feasible-set answer."""
    pos = drift.intersect(IntervalSet((Interval(0.0, INF, lo_open=True),)))
    inf_val, _ = pos.inf_value()
    if inf_val == INF:
        return None
    return max(th.theta2, inf_val)


def no_ruin_threshold(t: LevyTriplet2D) -> RuinReport:
    """The exact no-ruin decision with its certificate.

    Returns the smallest starting level from which the ruin probability
    vanishes, or reports that ruin has positive probability from every
    starting level.  The thetas, the drift form and the feasible set are
    each evaluated once here, the thetas only for a decision that can be
    made; the report carries them.
    """
    warnings_out: list[str] = []
    branch = Branch.SIGMA_POSITIVE if xi_brownian(t) else Branch.SIGMA_ZERO
    piecewise = None if t.jumps.atoms_or_none() is None else drift_lhs_piecewise(t)
    try:
        feasible, rigid, th, drift = _feasible(t, piecewise)
        th = thetas(t.jumps) if th is None else th
    except UndeterminedError as exc:  # no thetas, no feasible level, and the reason
        return RuinReport(
            RuinDecision(DecisionKind.UNDETERMINED),
            None,
            IntervalSet.empty(),
            branch,
            SubordinatorCertificate.undetermined(exc),
            (str(exc),),
            piecewise,
            exc.residual,
        )

    nonneg = feasible.intersect(IntervalSet((Interval(0.0, INF),)))
    if nonneg.is_empty():
        if rigid is not None:  # the one candidate level is already certified
            cert = rigid
        elif branch is Branch.SIGMA_POSITIVE:
            cert = is_subordinator_s(t, -t.sigma[0][1] / t.sigma_xi2)
        else:
            cert = is_subordinator_s(t, th.theta2 if math.isfinite(th.theta2) else 0.0)
        decision = RuinDecision(DecisionKind.RUIN_EVERYWHERE)
        if cert.verdict is Verdict.UNDETERMINED:
            decision = RuinDecision(DecisionKind.UNDETERMINED)
            warnings_out.append(cert.detail or "undetermined certificate")
    else:
        u_star, attained = nonneg.inf_value()
        if not attained:
            warnings_out.append(
                "threshold is a one-sided limit: ruin remains possible at the "
                "threshold level itself"
            )
        if drift is not None:  # a zero Gaussian part
            literal = _literal_threshold_sigma_zero(drift, th)
            if literal is None or abs(literal - u_star) > BOUNDARY_TOL * max(
                1.0, abs(u_star)
            ):
                warnings_out.append(
                    "display-form threshold max(theta2, inf{u>0: drift holds}) "
                    f"differs from the feasible-set threshold ({literal} vs {u_star}); "
                    "the feasible-set value is authoritative"
                )
        # On the rigid branch the only feasible level is the certified one.
        cert = rigid if rigid is not None else is_subordinator_s(t, u_star)
        decision = RuinDecision(DecisionKind.NO_RUIN_FROM, u_star, attained)
    return RuinReport(
        decision, th, feasible, branch, cert, tuple(warnings_out), piecewise, cert.residual
    )


# ---------------------------------------------------------------------------
# Side condition: convergence of the discounted integral
# ---------------------------------------------------------------------------


def z_infinity_converges(t: LevyTriplet2D) -> Verdict:
    """Does the discounted integral Z converge a.s. to a finite limit?

    That needs xi to drift to +infinity and a logarithmic tail moment of the
    eta jumps to be finite.  Every measure this package represents has
    bounded support, so the tail moment is always finite and the mean of
    xi always exists; the drift test is the mean test E[xi_1] > 0.
    """
    try:
        ex = mean_at_one(t)[0]
    except UndeterminedError:
        return Verdict.UNDETERMINED
    return Verdict.YES if sgn(ex) > 0 else Verdict.NO
