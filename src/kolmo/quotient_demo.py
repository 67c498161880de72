"""Classical quotient conditionals, computed exactly.

Dividing one dyadic mass by another leaves the dyadic class, so this
module alone works with general exact rationals (fractions.Fraction).
Reports tabulate the quotient-style conditional next to shortest-program
lengths; everything is descriptive, with an explicit "inf" sentinel for
the impossible rows, because the mismatch being illustrated is about
trends, not a pinned constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .apriori import approx_apriori
from .codes import string_to_nat, nat_to_string
from .complexity import approx_k
from .exact_arith import Dyadic, ONE, ZERO
from .prefix_vm import PrefixMachine

__all__ = [
    "UndefinedConditionalError",
    "ConditioningSet",
    "JointTable",
    "conditional_on_set",
    "quotient_conditional",
    "quotient_forms",
    "mix_joint",
    "GapTrendRow",
    "single_gap_report",
    "format_gap_report",
]

INF = "inf"


class UndefinedConditionalError(ArithmeticError):
    """Conditioning on an event of mass zero."""


@dataclass(frozen=True)
class ConditioningSet:
    """A finite event as both a set of words and its indicator word.

    Position i of the indicator word (0-based, over ``index_range``
    positions) is 1 exactly when ``nat_to_string(i)``, the word at
    bijection position i, belongs to the set.
    """

    members: frozenset[str]
    index_range: int

    def __post_init__(self) -> None:
        for w in self.members:
            if string_to_nat(w) >= self.index_range:
                raise ValueError(f"member {w!r} outside index range {self.index_range}")

    @classmethod
    def of(cls, members, index_range: int | None = None) -> "ConditioningSet":
        ms = frozenset(members)
        if index_range is None:
            index_range = 1 + max((string_to_nat(w) for w in ms), default=0)
        return cls(ms, index_range)

    @property
    def characteristic(self) -> str:
        return "".join(
            "1" if nat_to_string(i) in self.members else "0" for i in range(self.index_range)
        )

    def __contains__(self, w: str) -> bool:
        return w in self.members


def conditional_on_set(p, b: ConditioningSet) -> dict[str, Fraction]:
    """The classical conditional: zero outside the event, mass over event
    mass inside.  For semiprobability inputs the inside masses sum to at
    most 1; for probability inputs, to exactly 1."""
    event_mass = sum((p.get(w, ZERO) for w in b.members), ZERO)
    if event_mass.is_zero:
        raise UndefinedConditionalError("conditioning event has mass zero")
    denom = event_mass.to_fraction()
    out: dict[str, Fraction] = {}
    for w, mass in p.items():
        out[w] = mass.to_fraction() / denom if w in b else Fraction(0)
    return out


@dataclass(frozen=True)
class JointTable:
    """Sparse two-argument mass table with total at most 1."""

    entries: tuple[tuple[tuple[str, str], Dyadic], ...]

    def __post_init__(self) -> None:
        total = sum((v for _, v in self.entries), ZERO)
        if total > ONE:
            raise ValueError(f"joint masses sum to {total} > 1")
        if len({xy for xy, _ in self.entries}) != len(self.entries):
            raise ValueError("duplicate joint points")

    @classmethod
    def of(cls, mapping) -> "JointTable":
        return cls(tuple(sorted(mapping.items())))

    def mass(self, x: str, y: str) -> Dyadic:
        for xy, v in self.entries:
            if xy == (x, y):
                return v
        return ZERO

    def marginal_second(self, y: str) -> Dyadic:
        return sum((v for (xx, yy), v in self.entries if yy == y), ZERO)

    def xs(self):
        return sorted({x for (x, _), _ in self.entries}, key=lambda w: (len(w), w))


def quotient_conditional(j: JointTable, x: str, y: str) -> Fraction:
    """mass(x, y) divided by the second marginal at y, exactly."""
    marginal = j.marginal_second(y)
    if marginal.is_zero:
        raise UndefinedConditionalError(f"marginal at {y!r} is zero")
    return j.mass(x, y).to_fraction() / marginal.to_fraction()


def mix_joint(components) -> JointTable:
    """Weighted sum of joint tables; weights are 2**-exponent."""
    acc: dict[tuple[str, str], Dyadic] = {}
    for e, table in components:
        w = Dyadic.pow2(e)
        for xy, v in table.entries:
            add = w * v
            if not add.is_zero:
                acc[xy] = acc.get(xy, ZERO) + add
    return JointTable.of(acc)


def quotient_forms(components, x: str, y: str) -> tuple[Fraction, Fraction, Fraction]:
    """The quotient computed three ways: from the pre-summed table, from
    summed numerators over summed per-point marginal sums, and from
    per-component marginals.  All three must agree exactly."""
    pre = quotient_conditional(mix_joint(components), x, y)

    num = Fraction(0)
    den_pointwise = Fraction(0)
    den_marginals = Fraction(0)
    for e, table in components:
        w = Dyadic.pow2(e).to_fraction()
        num += w * table.mass(x, y).to_fraction()
        den_marginals += w * table.marginal_second(y).to_fraction()
        for (xx, yy), v in table.entries:
            if yy == y:
                den_pointwise += w * v.to_fraction()
    if den_pointwise == 0:
        raise UndefinedConditionalError(f"marginal at {y!r} is zero")
    return pre, num / den_pointwise, num / den_marginals


@dataclass(frozen=True)
class GapTrendRow:
    """One probe word against one conditioning set.

    ``neg_log_ratio_*`` bracket -log2 of mass(x)/mass(indicator); the
    two integers coincide exactly when the ratio is a power of two.  The
    sentinel "inf" marks words outside the event, whose quotient
    conditional is zero while their program-length column stays finite.
    """

    set_size: int
    x: str
    in_event: bool
    mass_x: Dyadic
    mass_indicator: Dyadic
    conditional: Fraction | None
    ratio: Fraction | None
    neg_log_ratio_floor: int | str
    neg_log_ratio_ceil: int | str
    k_given_indicator: int | None
    complete: bool


def _neg_log2_bounds(r: Fraction) -> tuple[int, int]:
    """floor and ceil of -log2(r) for a positive rational, exactly.

    The bit lengths pin log2(r) into an open window of width two, so a
    single exact comparison against the middle power settles both.
    """
    num, den = r.numerator, r.denominator
    d = num.bit_length() - den.bit_length()
    mid_le_r = (den << d <= num) if d >= 0 else (den <= num << -d)   # 2^d <= r
    r_le_mid = (num <= den << d) if d >= 0 else (num << -d <= den)   # r <= 2^d
    floor_log = d if mid_le_r else d - 1
    ceil_log = d if r_le_mid else d + 1
    return -ceil_log, -floor_log


def single_gap_report(
    m: PrefixMachine,
    sets,
    max_stage: int,
    length_bound: int,
    step_bound: int,
    extra_probes: tuple[str, ...] = (),
) -> list[GapTrendRow]:
    """For each conditioning set: compare the quotient-style conditional
    of the machine's unconditional mass table against shortest-program
    lengths given the set's indicator word.

    Rows are descriptive.  Probes outside the event show the structural
    failure directly: conditional 0 (the "inf" sentinel in the log
    columns) against a finite program length.
    """
    table = approx_apriori(m, "", max_stage, length_bound)
    rows: list[GapTrendRow] = []
    for b in sets:
        indicator = b.characteristic
        mass_ind = table.mass(indicator)
        probes = sorted(b.members, key=lambda w: (len(w), w)) + [
            p for p in extra_probes if p not in b
        ]
        for x in probes:
            mass_x = table.mass(x)
            in_event = x in b
            conditional = None
            ratio = None
            lo: int | str = INF
            hi: int | str = INF
            if in_event:
                try:
                    conditional = conditional_on_set(table.entries, b).get(x, Fraction(0))
                except UndefinedConditionalError:
                    conditional = None
                if not mass_x.is_zero and not mass_ind.is_zero:
                    ratio = mass_x.to_fraction() / mass_ind.to_fraction()
                    lo, hi = _neg_log2_bounds(ratio)
            est = approx_k(m, x, indicator, length_bound, step_bound)
            rows.append(
                GapTrendRow(
                    set_size=len(b.members),
                    x=x,
                    in_event=in_event,
                    mass_x=mass_x,
                    mass_indicator=mass_ind,
                    conditional=conditional,
                    ratio=ratio,
                    neg_log_ratio_floor=lo,
                    neg_log_ratio_ceil=hi,
                    k_given_indicator=est.bits if est else None,
                    complete=est is not None and (not in_event or ratio is not None),
                )
            )
    return rows


def format_gap_report(rows) -> str:
    header = "set_size\tx\tin_event\tmass_x\tmass_ind\tconditional\tneg_log_floor\tneg_log_ceil\tk_given_ind\tcomplete"
    lines = [header]
    for r in rows:
        cond = "-" if r.conditional is None else f"{r.conditional.numerator}/{r.conditional.denominator}"
        k = "-" if r.k_given_indicator is None else str(r.k_given_indicator)
        lines.append(
            "\t".join(
                [
                    str(r.set_size),
                    r.x or "-",
                    "1" if r.in_event else "0",
                    str(r.mass_x),
                    str(r.mass_indicator),
                    cond,
                    str(r.neg_log_ratio_floor),
                    str(r.neg_log_ratio_ceil),
                    k,
                    "1" if r.complete else "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"
