"""Self-delimiting codes, the word/number bijection, pairing, Kraft audits.

Words are plain Python strings over ``"01"``; the empty string is the
empty word.  The word/number bijection is

    0 <-> "", 1 <-> "0", 2 <-> "1", 3 <-> "00", 4 <-> "01", ...

i.e. write ``n + 1`` in binary and drop the leading 1.  Sorting words by
(length, lexicographic) therefore matches sorting numbers by value.
"""

from __future__ import annotations

from math import isqrt

from .exact_arith import Dyadic

__all__ = [
    "MalformedStreamError",
    "check_bits",
    "nat_to_string",
    "string_to_nat",
    "word_index",
    "index_word",
    "word_text",
    "parse_word_text",
    "bar_encode",
    "bar_decode",
    "bar_length",
    "std_encode",
    "std_decode",
    "pair_strings",
    "unpair_strings",
    "pair3",
    "cantor_pair",
    "cantor_unpair",
    "is_prefix_free",
    "kraft_sum",
]


class MalformedStreamError(ValueError):
    """A stream that does not start with a complete codeword."""


def check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a binary word: {s!r}")
    return s


def nat_to_string(n: int) -> str:
    if n < 0:
        raise ValueError("need a natural number")
    return format(n + 1, "b")[1:]


def string_to_nat(s: str) -> int:
    check_bits(s)
    return int("1" + s, 2) - 1


def word_index(w: str) -> int:
    """1-based position of a word in length-increasing lexicographic order."""
    return string_to_nat(w) + 1


def index_word(i: int) -> str:
    if i < 1:
        raise ValueError("positions start at 1")
    return nat_to_string(i - 1)


def word_text(w: str) -> str:
    """A word as a file field: the empty word is written ``-``."""
    return w if w else "-"


def parse_word_text(t: str) -> str:
    """Inverse of ``word_text``."""
    return "" if t == "-" else t


def bar_encode(x: str) -> str:
    """Run-length framed word: 1^|x| 0 x, always 2|x| + 1 bits."""
    check_bits(x)
    return "1" * len(x) + "0" + x


def bar_decode(stream: str) -> tuple[str, int]:
    """Read one bar codeword off the front; returns (word, bits consumed)."""
    check_bits(stream)
    n = 0
    while n < len(stream) and stream[n] == "1":
        n += 1
    if n == len(stream):
        raise MalformedStreamError("run of 1s has no terminator")
    if len(stream) < 2 * n + 1:
        raise MalformedStreamError("codeword truncated")
    return stream[n + 1 : 2 * n + 1], 2 * n + 1


def bar_length(n: int) -> int:
    """|bar(w)| for the word w at bijection position n."""
    return 2 * len(nat_to_string(n)) + 1


def std_encode(x: str) -> str:
    """Length-prefixed word: bar(word of |x|) followed by x itself."""
    check_bits(x)
    return bar_encode(nat_to_string(len(x))) + x


def std_decode(stream: str) -> tuple[str, int]:
    s, c = bar_decode(stream)
    n = string_to_nat(s)
    if len(stream) < c + n:
        raise MalformedStreamError("payload truncated")
    return stream[c : c + n], c + n


def pair_strings(x: str, y: str) -> str:
    """<x, y> as the self-delimiting code of x followed by y verbatim."""
    check_bits(y)
    return std_encode(x) + y


def unpair_strings(s: str) -> tuple[str, str]:
    x, c = std_decode(s)
    return x, s[c:]


def pair3(x: str, y: str, z: str) -> str:
    return pair_strings(x, pair_strings(y, z))


def cantor_pair(i: int, j: int) -> int:
    if i < 0 or j < 0:
        raise ValueError("need naturals")
    return (i + j) * (i + j + 1) // 2 + j


def cantor_unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("need a natural")
    w = (isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def is_prefix_free(words) -> bool:
    """True iff no word is a proper prefix of another (set semantics)."""
    ws = sorted(set(words))
    for a, b in zip(ws, ws[1:]):
        if b.startswith(a):
            return False
    for w in ws:
        check_bits(w)
    return True


def kraft_sum(words) -> Dyadic:
    """Sum of 2**-|w| over the distinct words, exactly."""
    total = Dyadic(0)
    for w in set(words):
        check_bits(w)
        total = total + Dyadic.pow2(len(w))
    return total
