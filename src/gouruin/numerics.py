"""Tolerance conventions and checked extended-real arithmetic.

Extended reals are plain IEEE floats carrying ``inf``/``-inf``.  Comparisons
follow the usual total order; ``checked_add`` makes the indeterminate form
inf - inf a hard error instead of a silent NaN.

``BOUNDARY_TOL`` is the package-wide comparison tolerance for exact-tier
region predicates: a quantity within 1e-12 of zero is treated as sitting on
the boundary.
"""

from __future__ import annotations

import math

from .errors import IndeterminateFormError

INF = math.inf
NEG_INF = -math.inf

#: Comparison tolerance for atom-tier boundary predicates.
BOUNDARY_TOL = 1e-12


def sgn(value: float) -> int:
    """Sign of ``value`` with a dead band of ``BOUNDARY_TOL`` around zero."""
    if math.isnan(value):
        raise IndeterminateFormError("sign of NaN requested")
    if value > BOUNDARY_TOL:
        return 1
    if value < -BOUNDARY_TOL:
        return -1
    return 0


def checked_add(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        raise IndeterminateFormError("inf - inf in extended-real addition")
    return a + b


def ext_to_json(value: float):
    """Encode an extended real for JSON ('inf'/'-inf' strings at infinity);
    None, for no value, stays None."""
    if value == INF:
        return "inf"
    if value == NEG_INF:
        return "-inf"
    return value


def ext_from_json(value) -> float:
    if value == "inf":
        return INF
    if value == "-inf":
        return NEG_INF
    return float(value)
