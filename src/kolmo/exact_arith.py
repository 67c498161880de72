"""Exact dyadic rationals and half-open subintervals of [0, 1).

Every probability mass, Kraft sum, and interval endpoint in this package
is a dyadic rational ``num / 2**exp`` held as a pair of Python integers,
so every comparison and bound check is bit-exact.  General (non-dyadic)
rationals are deliberately kept out of this module; the one place they
arise (conditional quotients) uses ``fractions.Fraction`` instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Dyadic",
    "DyadicError",
    "ZERO",
    "ONE",
    "Interval",
    "BinaryInterval",
    "largest_binary_subinterval",
    "cover_by_binary",
]


class DyadicError(ValueError):
    """Invalid dyadic value, or an operation leaving the nonnegative domain."""


_TEXT_RE = re.compile(r"^(\d+)/2\^(\d+)$")


@dataclass(frozen=True, eq=False)
class Dyadic:
    """Nonnegative dyadic rational ``num / 2**exp``.

    Instances are canonical: common factors of two are removed, so ``num``
    is odd whenever ``exp > 0``, and zero is stored as ``(0, 0)``.
    Integer values live at ``exp == 0``.  Addition, multiplication, and
    subtraction (when the result stays nonnegative) are exact.
    """

    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        num, exp = self.num, self.exp
        if num < 0:
            raise DyadicError(f"negative numerator: {num}")
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        else:
            while exp > 0 and num & 1 == 0:
                num >>= 1
                exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @staticmethod
    def pow2(k: int) -> "Dyadic":
        """The value 2**-k (k may be negative)."""
        return Dyadic(1, k)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Inverse of str(); also accepts a bare decimal integer."""
        text = text.strip()
        m = _TEXT_RE.match(text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)))
        if text.isdigit():
            return cls(int(text))
        raise DyadicError(f"not a dyadic literal: {text!r}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        n = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        if n < 0:
            raise DyadicError(f"subtraction below zero: {self} - {other}")
        return Dyadic(n, e)

    def __mul__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def halve(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    # -- comparisons (exact, with int coercion) ------------------------

    def _cmp(self, other: "Dyadic") -> int:
        lhs = self.num << other.exp
        rhs = other.num << self.exp
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) < 0

    def __le__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @property
    def is_power_of_two(self) -> bool:
        if self.num == 0:
            return False
        if self.exp > 0:
            return self.num == 1
        return self.num & (self.num - 1) == 0

    def floor_log2(self) -> int:
        if self.num == 0:
            raise DyadicError("log of zero")
        return self.num.bit_length() - 1 - self.exp

    def ceil_log2_reciprocal(self) -> int:
        """ceil(log2(1/value)); for 0 < value <= 1 this is the codeword
        length needed to fit a mass of this size into one binary step."""
        if self.num == 0:
            raise DyadicError("log of zero")
        return self.exp - (self.num.bit_length() - 1)

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"


def _coerce(v) -> "Dyadic":
    if isinstance(v, Dyadic):
        return v
    if isinstance(v, int):
        return Dyadic(v)
    return NotImplemented


ZERO = Dyadic(0)
ONE = Dyadic(1)


@dataclass(frozen=True)
class Interval:
    """Half-open [lo, hi) with dyadic endpoints inside [0, 1]."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self) -> None:
        if not (ZERO <= self.lo <= self.hi <= ONE):
            raise DyadicError(f"bad interval [{self.lo}, {self.hi})")

    @property
    def length(self) -> Dyadic:
        return self.hi - self.lo

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True)
class BinaryInterval:
    """The span of all infinite extensions of a finite word: [0.w, 0.w + 2**-|w|)."""

    word: str

    def __post_init__(self) -> None:
        if self.word.strip("01"):
            raise DyadicError(f"not a binary word: {self.word!r}")

    @property
    def length(self) -> Dyadic:
        return Dyadic.pow2(len(self.word))

    def interval(self) -> Interval:
        lo = Dyadic(int(self.word, 2) if self.word else 0, len(self.word))
        return Interval(lo, lo + self.length)

    def __str__(self) -> str:
        return f"G[{self.word}]"


def _ceil_shift(d: Dyadic, k: int) -> int:
    """ceil(d * 2**k) for k >= 0."""
    if k >= d.exp:
        return d.num << (k - d.exp)
    s = d.exp - k
    return (d.num + (1 << s) - 1) >> s

def _floor_shift(d: Dyadic, k: int) -> int:
    if k >= d.exp:
        return d.num << (k - d.exp)
    return d.num >> (d.exp - k)

def _aligned_word(m: int, k: int) -> str:
    return format(m, "b").zfill(k) if k else ""


def largest_binary_subinterval(iv: Interval) -> BinaryInterval | None:
    """Leftmost among the longest binary intervals contained in ``iv``.

    For a nonempty interval of length L the result has length > L/4, so
    the word is at most ceil(log2(1/L)) + 2 bits, and no shorter word
    than ceil(log2(1/L)) bits fits; a degenerate interval has no binary
    subinterval and yields None.
    """
    length = iv.length
    if length.is_zero:
        return None
    k = length.ceil_log2_reciprocal()
    while True:
        m = _ceil_shift(iv.lo, k)
        if Dyadic(m + 1, k) <= iv.hi:
            return BinaryInterval(_aligned_word(m, k))
        k += 1


def cover_by_binary(iv: Interval) -> list[BinaryInterval]:
    """Cover ``iv`` with aligned binary intervals of the largest fitting size.

    At most four intervals are ever needed: a fifth would force an
    aligned interval of twice the size inside ``iv``, contradicting the
    choice of size.
    """
    best = largest_binary_subinterval(iv)
    if best is None:
        return []
    k = len(best.word)
    m0 = _floor_shift(iv.lo, k)
    m1 = _ceil_shift(iv.hi, k)
    return [BinaryInterval(_aligned_word(m, k)) for m in range(m0, m1)]
