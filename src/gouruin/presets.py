"""Built-in process specifications and the JSON spec format.

Two pinned example drivers ship with the package:

* ``continuous_example(c)``: a perfectly anti-correlated Brownian pair,
  first component B + c t, second component -B + (1/2 - c) t.  Its
  discounted integral has the closed form exp(-(B_t + c t)) - 1 and the
  no-ruin threshold is exactly 1.
* ``jump_example(c, lambda)``: the compensated-Poisson pair
  (-c t + N_t, 2 c t - N_t) with N a rate-lambda Poisson process.  Its
  no-ruin threshold is exactly e / (e - 1).

An inline spec is the JSON triplet document accepted by
:func:`gouruin.model.triplet_from_json`.
"""

from __future__ import annotations

from .errors import InvalidModelError
from .model import FiniteAtomSet, JumpAtom, LevyTriplet2D, triplet_from_json


def continuous_example_triplet(c: float) -> LevyTriplet2D:
    return LevyTriplet2D(
        (c, 0.5 - c),
        ((1.0, -1.0), (-1.0, 1.0)),
        FiniteAtomSet([]),
    )


def jump_example_triplet(c: float, lam: float) -> LevyTriplet2D:
    if not (c > 0.0 and lam > 0.0):
        raise InvalidModelError("jump example requires c > 0 and lambda > 0")
    return LevyTriplet2D(
        (-c, 2.0 * c),
        ((0.0, 0.0), (0.0, 0.0)),
        FiniteAtomSet([JumpAtom(1.0, -1.0, lam)]),
    )


def _preset_number(doc: dict, name: str, default: float) -> float:
    try:
        return float(doc.get(name, default))
    except (TypeError, ValueError):
        raise InvalidModelError(
            f"preset field {name!r} must be a number, got {doc[name]!r}") from None


def triplet_from_spec(doc: dict) -> tuple[LevyTriplet2D, dict]:
    """Expand a process spec (preset or inline triplet) and echo its meta."""
    if not isinstance(doc, dict):
        raise InvalidModelError(f"a process spec must be a JSON object, got {doc!r}")
    if "preset" in doc:
        name = doc["preset"]
        if name == "continuous_example":
            c = _preset_number(doc, "c", 0.0)
            return continuous_example_triplet(c), {"preset": name, "c": c}
        if name == "jump_example":
            c = _preset_number(doc, "c", 1.0)
            lam = _preset_number(doc, "lambda", 1.0)
            return jump_example_triplet(c, lam), {
                "preset": name,
                "c": c,
                "lambda": lam,
            }
        raise InvalidModelError(
            f"unknown preset {name!r}; available: continuous_example, jump_example"
        )
    return triplet_from_json(doc), {"inline": True}
