"""Interval sets on the extended real line.

Feasible candidate sets (where some linear functional is nonnegative, or a
threshold interval) are finite unions of intervals whose endpoints may be
open or closed; infinite endpoints are always open.  The representation keeps
endpoint flags explicit so suprema and membership are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidModelError
from .numerics import INF, NEG_INF, ext_to_json


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        # Normalise: infinite endpoints are open by convention.
        if math.isinf(self.lo) and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if math.isinf(self.hi) and not self.hi_open:
            object.__setattr__(self, "hi_open", True)

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open
        return False

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def to_json(self) -> dict:
        return {
            "lo": ext_to_json(self.lo),
            "hi": ext_to_json(self.hi),
            "lo_open": self.lo_open,
            "hi_open": self.hi_open,
        }


def _touch_or_overlap(a: Interval, b: Interval) -> bool:
    # b starts no later than a ends, allowing closed-meets-closed at a point.
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return not (b.lo_open and a.hi_open)
    return False


class IntervalSet:
    """Finite union of disjoint intervals, kept sorted and merged."""

    def __init__(self, intervals=()):
        parts = sorted(
            (iv for iv in intervals if not iv.is_empty()),
            key=lambda iv: (iv.lo, iv.lo_open),
        )
        merged: list[Interval] = []
        for iv in parts:
            if merged and _touch_or_overlap(merged[-1], iv):
                last = merged[-1]
                if iv.hi > last.hi or (iv.hi == last.hi and not iv.hi_open):
                    merged[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
            else:
                merged.append(iv)
        self.intervals: tuple[Interval, ...] = tuple(merged)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def point(cls, x: float) -> "IntervalSet":
        return cls((Interval(x, x),))

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                c = a.intersect(b)
                if not c.is_empty():
                    out.append(c)
        return IntervalSet(out)

    def sup_at_most(self, z: float) -> float:
        """sup of the set intersected with (-inf, z]; -inf when empty.  A NaN
        level is refused: it would skip no interval and read as their top."""
        if math.isnan(z):
            raise InvalidModelError(f"level must be a number, got {z}")
        best = NEG_INF
        for iv in self.intervals:
            if iv.lo > z or (iv.lo == z and iv.lo_open):
                continue
            best = max(best, min(iv.hi, z))
        return best

    def inf_value(self) -> tuple[float, bool]:
        """(infimum, attained) of the whole set; (inf, False) when empty."""
        if not self.intervals:
            return INF, False
        first = self.intervals[0]
        return first.lo, not first.lo_open

    def to_json(self) -> list[dict]:
        return [iv.to_json() for iv in self.intervals]
