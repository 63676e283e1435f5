"""Half-integer spin/weight labels stored as doubled integers."""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class HalfInt:
    """A value j or m from the half-integer lattice, stored as 2*value.

    Keeping the doubled value integral means ladder arithmetic (m+1, -j..j
    ranges, j(j+1) products) never touches floating point.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt stores the doubled value as an int")
        self.twice = twice

    @classmethod
    def from_str(cls, s: str) -> "HalfInt":
        """Parse '3/2', '1/2', '2', '-1' style labels."""
        frac = Fraction(s.strip())
        doubled = frac * 2
        if doubled.denominator != 1:
            raise ValueError(f"{s!r} is not a half-integer")
        return cls(int(doubled))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def exact(self) -> Fraction:
        return Fraction(self.twice, 2)

    def mm1(self) -> Fraction:
        """m(m+1) as an exact rational."""
        return Fraction(self.twice * (self.twice + 2), 4)

    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice + other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice + 2 * other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice - other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice - 2 * other)
        return NotImplemented

    def __neg__(self):
        return HalfInt(-self.twice)

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, (int, float, Fraction)):
            return self.exact == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, HalfInt):
            return self.twice < other.twice
        if isinstance(other, (int, float, Fraction)):
            return self.exact < other
        return NotImplemented

    def __hash__(self):
        return hash(self.exact)

    def __repr__(self):
        return f"HalfInt({self.twice})"

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def halfint(x) -> HalfInt:
    """Coerce an int, float, Fraction, string or HalfInt to HalfInt."""
    if isinstance(x, HalfInt):
        return x
    if isinstance(x, str):
        return HalfInt.from_str(x)
    frac = Fraction(x) * 2
    if frac.denominator != 1:
        raise ValueError(f"{x!r} is not a half-integer")
    return HalfInt(int(frac))

