"""Resource-bounded upper bounds on conditional program-length complexity.

Everything here is an *upper bound estimate*: the shortest accepted
program found by exhausting all words up to a length bound with a step
budget.  The true minimal program length is not computable, and nothing
in this module pretends otherwise; growing either bound can only lower
an estimate, never raise it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import bar_encode, bar_length, nat_to_string, pair_strings
from .prefix_vm import PrefixMachine, enumerate_machines, halting_programs

__all__ = [
    "KEstimate",
    "SoiReport",
    "approx_k",
    "approx_k_universal",
    "soi_report",
]


@dataclass(frozen=True)
class KEstimate:
    """Shortest accepted program found for one output within bounds.

    ``bits`` is an upper bound on the machine's conditional complexity of
    ``x`` given ``aux``; ``witness`` is the lexicographically first
    program of that length.  Provenance fields tie the estimate to the
    machine and search bounds that produced it.
    """

    bits: int
    witness: str
    length_bound: int
    step_bound: int
    x: str = ""
    aux: str = ""
    machine_digest: str = ""


def approx_k(
    m: PrefixMachine, x: str, y: str, length_bound: int, step_bound: int
) -> KEstimate | None:
    """Exhaustive search for the shortest program producing ``x`` with
    ``y`` on the auxiliary tape; None when no program within bounds
    halts with that output (absence is an answer, not an error)."""
    if length_bound < 1 or step_bound < 1:
        raise ValueError("bounds must be positive")
    best = None
    for leaf in halting_programs(m, y, length_bound, step_bound):
        if leaf.output == x:
            best = leaf.program      # leaves arrive (length, lex)-sorted
            break
    if best is None:
        return None
    return KEstimate(
        bits=len(best),
        witness=best,
        length_bound=length_bound,
        step_bound=step_bound,
        x=x,
        aux=y,
        machine_digest=m.digest(),
    )


def approx_k_universal(x: str, y: str, length_bound: int, step_bound: int) -> KEstimate | None:
    """Shortest universal program for ``x`` given ``y``: a bar-coded
    machine position followed by a program of that machine.  The search
    covers every position whose bar code leaves room for a program."""
    if length_bound < 1 or step_bound < 1:
        raise ValueError("bounds must be positive")
    best: str | None = None
    i = 1
    while (room := length_bound - bar_length(i)) >= 0:
        for leaf in halting_programs(enumerate_machines(i), y, room, step_bound):
            if leaf.output != x:
                continue
            cand = bar_encode(nat_to_string(i)) + leaf.program
            if best is None or (len(cand), cand) < (len(best), best):
                best = cand
            break
        i += 1
    if best is None:
        return None
    return KEstimate(
        bits=len(best),
        witness=best,
        length_bound=length_bound,
        step_bound=step_bound,
        x=x,
        aux=y,
        machine_digest="U",
    )


@dataclass(frozen=True)
class SoiReport:
    """Descriptive information-symmetry row: how the cost of the pair
    compares with cost of the first part plus the cost of the second
    given a shortest program for the first.  The residual has no
    tolerance attached; it is machine-dependent by nature."""

    x: str
    y: str
    k_pair: int | None
    k_x: int | None
    k_y_given_xstar: int | None
    residual: int | None
    x_star: str | None
    complete: bool


def soi_report(
    m: PrefixMachine, x: str, y: str, length_bound: int, step_bound: int
) -> SoiReport:
    est_pair = approx_k(m, pair_strings(x, y), "", length_bound, step_bound)
    est_x = approx_k(m, x, "", length_bound, step_bound)
    est_y = None
    x_star = est_x.witness if est_x else None
    if x_star is not None:
        est_y = approx_k(m, y, x_star, length_bound, step_bound)
    complete = None not in (est_pair, est_x, est_y)
    residual = (
        est_pair.bits - est_x.bits - est_y.bits if complete else None
    )
    return SoiReport(
        x=x,
        y=y,
        k_pair=est_pair.bits if est_pair else None,
        k_x=est_x.bits if est_x else None,
        k_y_given_xstar=est_y.bits if est_y else None,
        residual=residual,
        x_star=x_star,
        complete=complete,
    )
