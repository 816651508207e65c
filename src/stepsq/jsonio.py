"""Rational-string JSON helpers shared by all serializers."""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence


def rat_str(x: Q) -> str:
    """Render an exact rational as the canonical "p/q" string."""
    x = Q(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Q:
    """Parse a "p/q" (or plain integer) string into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Q(int(num), int(den))
    return Q(int(s))


def vec_strs(v: Sequence[Q]) -> list:
    """Render a rational vector as a list of "p/q" strings."""
    return [rat_str(x) for x in v]
